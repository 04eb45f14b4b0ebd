"""Finite-difference gradient checker for gradcore graphs, shared by the tests."""

import zlib

import numpy as np

import morphkit.gradcore as gc


def _kink_masks(graph, values):
    """Each kinked op's ``kink`` mask at the node values of one forward pass."""
    masks = []
    for n in graph.nodes:
        rule = gc._RULES.get(n.op)
        if rule is not None and rule.kink is not None:
            masks.append(rule.kink([values[i.uid] for i in n.inputs],
                                   values[n.uid], n.params))
    return masks


def finite_difference_check(graph, bindings, wrt, eps=1e-5,
                            max_coords=8, seed=0):
    """Max relative error between analytic and central-difference gradients.

    Coordinates are subsampled deterministically per leaf (at most
    ``max_coords`` each).  Probes whose +/-eps evaluations land on different
    sides of a kink (an op's ``kink`` mask changes) are skipped, as
    are probes that leave the finite domain.
    """
    g = graph if isinstance(graph, gc.Graph) else gc.Graph(graph)
    # central differences at eps need float64, whatever dtype was bound
    bindings = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
    _, analytic = gc.value_and_grad(g, bindings, wrt)
    worst = 0.0
    for name in wrt:
        base = bindings[name]
        flat = base.ravel()
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            rng = np.random.Generator(np.random.PCG64(seed + zlib.crc32(name.encode())))
            coords = rng.choice(flat.size, size=max_coords, replace=False)
            coords.sort()
        for idx in coords:
            values, kinks = [], []
            try:
                for step in (eps, -eps):
                    probe = flat.copy()
                    probe[idx] = flat[idx] + step
                    bound = {**bindings, name: probe.reshape(base.shape)}
                    nodes = gc._forward(g.nodes, bound)
                    values.append(nodes[g.output.uid])
                    kinks.append(_kink_masks(g, nodes))
            except gc.NonFiniteError:
                continue
            if any(not np.array_equal(a, b) for a, b in zip(*kinks)):
                continue
            num = float((values[0] - values[1]).reshape(())) / (2.0 * eps)
            ana = analytic[name].ravel()[idx]
            rel = abs(ana - num) / max(1.0, abs(ana))
            worst = max(worst, rel)
    return worst
