"""What each conv layer runs on, from the data alone.

HKConv's output at a node depends only on the node's features and its
neighborhood, so two nodes with the same feature bytes and the same
multiset of neighbor classes get the same output of every layer, as the
same function of the parameters. prepare() labels the nodes by colour
refinement (1-WL) and lists, for a model of a given depth, the rows each
conv layer runs on, the edges it pools and the rows the readout gathers.
None of it depends on a parameter, so one Layout serves every forward on
the same data (GraphBatch.class_layout keeps it on the batch).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def edge_arrays(batch):
    """Directed adjacency (src, dst) with self-entries for isolated nodes,
    sorted by (dst, src) so each node's neighborhood is one segment."""
    selfs = np.nonzero(batch.isolated)[0]
    if batch.edges.size:
        src = np.concatenate([batch.edges[:, 0], batch.edges[:, 1], selfs])
        dst = np.concatenate([batch.edges[:, 1], batch.edges[:, 0], selfs])
    else:
        src = selfs.copy()
        dst = selfs.copy()
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def _row_classes(rows: np.ndarray):
    """Compact class ids of the rows of a nonempty 2-D integer array,
    equal exactly when the rows are -> (ids, count). The ids number the
    distinct rows in lexicographic order (last column first), so they
    depend on the rows' contents alone, never on their positions. Float
    rows read through a uint64 view are ranked by their bytes, so -0.0
    and 0.0 differ."""
    order = np.lexsort(rows.T)
    ordered = rows[order]
    starts = np.empty(len(rows), dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    ids = np.empty(len(rows), dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids, int(np.count_nonzero(starts))


def _refine(labels: np.ndarray, count: int, src: np.ndarray, dst: np.ndarray):
    """One step of colour refinement (1-WL) -> (labels, count,
    neighbor_labels): two nodes share a class when they share a label and
    the sorted multiset of their neighbors' labels. neighbor_labels lists
    each node's neighbor labels in ascending order, node after node.

    labels holds ids in [0, count); src/dst are edge_arrays' (sorted by
    dst, every node one edge or more). When every node is its own class
    (count == N) no class can split, and the labels are returned as they
    are. Keys are built per degree, one (nodes x degree+1) block of the
    narrowest unsigned type at a time, so they take O(N + E) memory
    however large the largest degree.
    """
    n = labels.size
    # neighbor labels sorted within each neighborhood; dst is sorted already
    offset = dst * count
    neighbor_labels = np.sort(offset + labels[src]) - offset
    if count == n:
        return labels, count, neighbor_labels
    degree = np.bincount(dst, minlength=n)
    first = np.cumsum(degree) - degree
    dtype = np.min_scalar_type(count - 1)
    out = np.empty(n, dtype=np.intp)
    total = 0
    for d in np.unique(degree):
        nodes = np.flatnonzero(degree == d)
        keys = np.empty((nodes.size, d + 1), dtype=dtype)
        keys[:, 0] = labels[nodes]
        keys[:, 1:] = neighbor_labels[first[nodes, None] + np.arange(d)]
        ids, found = _row_classes(keys)
        out[nodes] = total + ids
        total += found
    return out, total, neighbor_labels


def _representatives(labels: np.ndarray, count: int) -> np.ndarray:
    """One node per class: reps[c] has label c."""
    reps = np.empty(count, dtype=np.intp)
    reps[labels] = np.arange(labels.size)
    return reps


def _pairs(roots: np.ndarray, neighbors: np.ndarray, count: int):
    """The distinct (root, neighbor) pairs of row ids in [0, count) ->
    (pair_roots, pair_neighbors, edges), edges[e] being edge e's pair.

    Edges of one pair carry the same rows, so they share one row of the
    edge node. The node is row-wise, so each edge keeps its own bits,
    unless the node runs on one row for several edges: a one-row tile
    rounds differently (layers._tiles), so a lone shared pair runs on two
    rows. Pairs come in ascending order, so ascending, all-distinct edges
    keep theirs (edges == arange(E)), as dropout masks drawn per edge need.
    """
    pairs, edges = np.unique(roots * count + neighbors, return_inverse=True)
    rows = max(pairs.size, min(roots.size, 2))
    return (*np.divmod(np.resize(pairs, rows), count), edges)


def _class_layers(features, src, dst, depth: int, distinct: bool):
    """What each conv layer runs on -> (feature_rows, layer_edges, labels).

    Layer i works on one row per depth-i class: feature_rows picks one
    node per depth-0 class (its feature bytes), and layer_edges[i] =
    (pair_roots, pair_neighbors, edges, counts, count) runs the edges of
    one node per depth-(i+1) class, class after class, each class's edges
    in ascending order of the neighbor's depth-i class, once per distinct
    pair of the depth-i classes of their ends (_pairs); counts[c] holds
    the edges of class c and count the classes. Edges with the same
    neighbor class carry the same rows, so that order leaves no tie that
    could change a bit, and class ids depend on feature bytes and
    structure alone, so no relabeling of the nodes changes it. labels maps
    every node to its depth-depth class. With distinct (dropout) every
    node starts as its own class in node order, so none splits and every
    edge is its own pair, in edge_arrays order as the dropout masks are
    drawn.
    """
    n = features.shape[0]
    degree = np.bincount(dst, minlength=n)
    first = np.cumsum(degree) - degree
    if distinct:
        labels, count = np.arange(n), n
    else:
        # feature rows are told apart by their bytes, so -0.0 and 0.0 differ
        labels, count = _row_classes(features.view(np.uint64))
    feature_rows = _representatives(labels, count)
    layer_edges = []
    for _ in range(depth):
        refined, refined_count, neighbor_labels = _refine(labels, count, src, dst)
        reps = _representatives(refined, refined_count)
        sizes = degree[reps]
        ends = np.cumsum(sizes)
        picked = np.repeat(first[reps] - (ends - sizes), sizes) + np.arange(ends[-1])
        roots = np.repeat(labels[reps], sizes)
        pairs = _pairs(roots, neighbor_labels[picked], count)
        layer_edges.append((*pairs, sizes, refined_count))
        labels, count = refined, refined_count
    return feature_rows, layer_edges, labels


@dataclass(frozen=True, eq=False)
class Layout:
    """One dataset's class layout for a model of a given depth, with
    read-only arrays.

    features holds the feature row of one node per depth-0 class,
    layer_edges one (pair_roots, pair_neighbors, edges, counts, count)
    entry per conv layer (_class_layers) and labels every node's class
    after the last layer. For a graph task, pooled lists each graph's
    class rows, graph after graph, in ascending class order, and
    graph_counts how many rows each graph has; both are None for a node
    task. In the distinct (dropout) layout every layer's pairs are the
    directed edges of edge_arrays, one dropout mask row each.
    """

    features: np.ndarray
    layer_edges: tuple
    labels: np.ndarray
    pooled: np.ndarray | None
    graph_counts: np.ndarray | None

    def __post_init__(self):
        entries = [getattr(self, f.name) for f in fields(self)]
        for entry in [*entries, *(a for layer in self.layer_edges for a in layer)]:
            if isinstance(entry, np.ndarray):
                entry.setflags(write=False)


def prepare(batch, depth: int, distinct: bool) -> Layout:
    """The class layout of batch for depth conv layers; distinct makes
    every node its own class, as dropout needs."""
    src, dst = edge_arrays(batch)
    feature_rows, layer_edges, labels = _class_layers(batch.features, src, dst, depth, distinct)
    pooled = graph_counts = None
    if batch.graph_ids is not None:
        count = layer_edges[-1][-1]
        pooled = np.sort(batch.graph_ids * count + labels) % count
        graph_counts = np.bincount(batch.graph_ids)
    return Layout(batch.features[feature_rows], tuple(layer_edges), labels, pooled, graph_counts)
