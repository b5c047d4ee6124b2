"""Pure-Python references for average-linkage clustering, shared by the
clustering tests and the acceptance gate."""

import itertools

import numpy as np


def oracle_linkage(entries, ci, cj):
    """Mean distance between two clusters: the direct double sum."""
    return sum(entries[u][v] for u in ci for v in cj) / (len(ci) * len(cj))


def oracle_merge_to_two(entries, n):
    """Independent agglomerative reference: frozensets, full rescan each step,
    ties broken by the sorted pair of cluster minima."""
    clusters = [frozenset([i]) for i in range(n)]
    merges = []
    while len(clusters) > 2:
        best = None
        for a, b in itertools.combinations(clusters, 2):
            link = oracle_linkage(entries, a, b)
            key = (link, tuple(sorted((min(a), min(b)))))
            if best is None or key < best[0]:
                best = (key, a, b)
        _, a, b = best
        merges.append((a, b, best[0][0]))
        clusters = [c for c in clusters if c not in (a, b)] + [a | b]
    return clusters, merges


def oracle_full_recompute(entries):
    """The merge loop the in-place linkage update replaced, kept as its
    bitwise reference: the whole linkage matrix is divided again before every
    merge. Returns the members of the cluster holding 0 and the merges as
    (first, second, linkage) tuples."""
    n = len(entries)
    sums = np.array(entries, dtype=np.float64)
    np.fill_diagonal(sums, np.inf)
    sizes = np.ones(n)
    members = [(i,) for i in range(n)]
    merges = []
    for _ in range(n - 2):
        linkage = sums / np.outer(sizes, sizes)
        a, b = divmod(int(np.argmin(linkage)), n)
        merges.append((members[a], members[b], float(linkage[a, b])))
        members[a] = tuple(sorted(members[a] + members[b]))
        sizes[a] += sizes[b]
        sums[a] += sums[b]
        sums[:, a] += sums[:, b]
        sums[b] = sums[:, b] = np.inf
    return members[0], merges
