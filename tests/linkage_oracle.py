"""Pure-Python references for average-linkage clustering, shared by the
clustering tests and the acceptance gate."""

import itertools


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
