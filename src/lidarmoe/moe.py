"""Gated fusion of three aligned expert outputs.

The experts arrive side by side, as one (N, 3*D) value whose column
blocks are the aligned range, voxel and point outputs. A single linear
layer reduces that value to a routing feature E; gate logits are E @ Z_g
plus, in train mode, elementwise standard-normal draws scaled by
softplus(E @ Z_n). Row-softmax yields convex weights (alpha, beta, gamma)
and the output is the weighted sum of the raw expert rows, each a column
block of that one value - the routing feature never enters the output.

Z_g and Z_n start at zero, so a fresh layer routes uniformly and outputs
the plain expert average.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .dataio import read_csv, write_text
from .errors import LidarMoeError
from .params import ParameterStore, glorot_uniform

REPRESENTATIONS = ("range", "voxel", "point")  # the experts, in gate column order


def moe_shapes(channels: int) -> dict:
    """``{name: shape}`` of the ``moe.*`` parameters that fuse
    ``channels``-wide experts, in the order :func:`init_moe_params` adds
    them."""
    experts = len(REPRESENTATIONS)
    return {"moe.fusion.w": (experts * channels, channels), "moe.fusion.b": (channels,),
            "moe.z_gate": (channels, experts), "moe.z_noise": (channels, experts)}


def init_moe_params(store: ParameterStore, channels: int, rng):
    """Fusion linear (3*channels -> channels), its weight a Glorot draw,
    plus zero bias and gate/noise weights, named ``moe.*``."""
    for name, shape in moe_shapes(channels).items():
        store.add(name, glorot_uniform(shape, rng) if name == "moe.fusion.w"
                  else np.zeros(shape, np.float32))


def build_moe(ctx, stacked, noise_tag):
    """Composable fusion of ``stacked``, the experts side by side: one
    (N, E*D) value whose column blocks are the aligned (N, D) expert outputs
    in ``REPRESENTATIONS`` order. Returns (fused Var, gates Var). The fusion
    linear reads ``stacked`` itself, and each gated term a column slice of
    it, so no expert is held twice. The gate draws noise, keyed by
    ``noise_tag``, exactly when ``ctx.train_mode`` is set."""
    stacked = ad.as_var(stacked)
    experts, width = len(REPRESENTATIONS), stacked.shape[1]
    if width % experts:
        raise LidarMoeError(f"{width} expert columns do not split into "
                            f"{experts} equal blocks")
    d = width // experts
    e = ad.add(ad.matmul(stacked, ctx.param("moe.fusion.w")), ctx.param("moe.fusion.b"))
    logits = ad.matmul(e, ctx.param("moe.z_gate"))
    if ctx.train_mode:
        scale = ad.softplus(ad.matmul(e, ctx.param("moe.z_noise")))
        chi = ad.as_var(ctx.randn(logits.shape, noise_tag))
        logits = ad.add(logits, ad.mul(chi, scale))
    gates = ad.softmax_rows(logits)

    def term(i):
        return ad.mul(ad.slice_cols(gates, i, i + 1),
                      ad.slice_cols(stacked, i * d, (i + 1) * d))

    fused = term(0)
    for i in range(1, experts):
        fused = ad.add(fused, term(i))
    return fused, gates


def gate_terms(gates: np.ndarray) -> dict:
    """The per-step gate terms of an (N, 3) gate array, as 0-d graph
    constants a step graph returns for its training log: ``gate_load_<kind>``,
    the mean weight of each column in ``REPRESENTATIONS`` order, and
    ``gate_entropy``, the mean row entropy in nats, with 0 log 0 taken as 0."""
    rows = gates.astype(np.float64)
    logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
    terms = {f"gate_load_{k}": rows[:, i].mean() for i, k in enumerate(REPRESENTATIONS)}
    # 0.0 - x rather than -x, so that one-hot rows log 0.0, not -0.0
    terms["gate_entropy"] = 0.0 - np.sum(rows * logs, axis=1).mean()
    return {name: ad.as_var(value) for name, value in terms.items()}


def write_gate_csv(path, gates: np.ndarray) -> None:
    """Per-point gate export of an (N, 3) float32 array over (range, voxel,
    point): point_id, alpha, beta, gamma. Each weight is written to 9
    significant digits (``%.9g``), the fewest that round-trip every float32
    (C11 ``FLT_DECIMAL_DIG``), so :func:`read_gate_csv` returns the gate's
    own float32 bits."""
    table = np.column_stack([np.arange(len(gates)), gates.astype(np.float64)])
    write_text(path, "point_id,alpha,beta,gamma\n"
               + "%d,%.9g,%.9g,%.9g\n" * len(gates) % tuple(table.ravel().tolist()))


def read_gate_csv(path) -> np.ndarray:
    """The (N, 3) float32 gate array of a gate-score CSV; raises
    LidarMoeError naming the file and the 0-based data row when a row is
    not convex weights (an entry below 0, or a sum more than 1e-5 from 1)."""
    gates = read_csv(path, "point_id,alpha,beta,gamma", np.float64)[:, 1:]
    bad = np.flatnonzero(np.any(gates < 0, axis=1) | (np.abs(gates.sum(axis=1) - 1) > 1e-5))
    if bad.size:
        raise LidarMoeError(f"{path}: row {bad[0]} is not convex gate weights: "
                            f"{gates[bad[0]].tolist()}")
    return gates.astype(np.float32)
