import itertools


def reference_linearity_witness(h):
    """The first pair of edge indices sharing two or more vertices, or
    None when h is linear: the first edge whose vertex pair an earlier
    edge already holds, with that earlier edge. The package needs no
    linearity test; the tests use this one to check that the linear
    generators and the vertex split keep their output linear."""
    seen = {}
    for e, fs in enumerate(h.edges):
        for pair in itertools.combinations(sorted(fs), 2):
            if pair in seen:
                return (seen[pair], e)
            seen[pair] = e
    return None
