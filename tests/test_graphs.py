from hypothesis import given, strategies as st

from gdecomp.graphs import UnionFind, bfs


@st.composite
def digraphs(draw):
    """(adjacency lists over 0..n-1, start vertex); lists may repeat."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    adj = [draw(st.lists(vertex, max_size=4)) for _ in range(n)]
    return adj, draw(vertex)


def relaxed_distances(adj, start):
    """Reference: relax every arc until no distance improves."""
    dist = {start: 0}
    changed = True
    while changed:
        changed = False
        for u, nbrs in enumerate(adj):
            if u not in dist:
                continue
            for v in nbrs:
                if dist[u] + 1 < dist.get(v, len(adj)):
                    dist[v] = dist[u] + 1
                    changed = True
    return dist


@given(digraphs())
def test_bfs_matches_relaxation(graph):
    adj, start = graph
    dist = bfs(adj.__getitem__, start)
    assert dist == relaxed_distances(adj, start)
    # BFS order: distances never decrease along the dict
    ds = list(dist.values())
    assert ds == sorted(ds)


@given(digraphs(), st.integers(0, 12))
def test_bfs_radius_keeps_the_ball(graph, radius):
    adj, start = graph
    full = relaxed_distances(adj, start)
    assert bfs(adj.__getitem__, start, radius) == {
        v: d for v, d in full.items() if d <= radius}


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))))))
def test_union_find_matches_partition(case):
    n, pairs = case
    uf = UnionFind(n)
    blocks = [{i} for i in range(n)]
    for a, b in pairs:
        root, gone = uf.union(a, b)
        ba = next(s for s in blocks if a in s)
        bb = next(s for s in blocks if b in s)
        if ba is bb:
            assert gone is None
        else:
            assert (root, gone) == tuple(sorted((min(ba), min(bb))))
            blocks.remove(bb)
            ba |= bb
        assert root == min(ba)
    for block in blocks:
        assert {uf.find(x) for x in block} == {min(block)}
