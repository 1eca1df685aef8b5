"""Forward one graph builder in a single call, for tests of the ``build_*``
functions."""

from lidarmoe.autodiff import Graph
from lidarmoe.params import ParameterStore


def evaluate_builder(build, inputs, params=None, train_mode=False, seed=0):
    """Evaluate ``build(ctx)`` over named ``inputs`` and ``params``.

    ``build`` returns one Var, a tuple of Vars or a dict of Vars; the
    result has the same form with every Var replaced by its array.
    """
    returned = []

    def named(ctx):
        out = build(ctx)
        returned.append(out)
        if isinstance(out, dict):
            return out
        return dict(enumerate(out if isinstance(out, tuple) else (out,)))

    _, outputs = Graph(named).run(params or ParameterStore(), inputs,
                                  train_mode=train_mode, seed=seed)
    arrays = {k: v.data for k, v in outputs.items()}
    out = returned[0]
    if isinstance(out, dict):
        return arrays
    if isinstance(out, tuple):
        return tuple(arrays[i] for i in range(len(out)))
    return arrays[0]
