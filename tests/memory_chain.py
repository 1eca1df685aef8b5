"""Peak memory of each subcommand of a dense end-to-end CLI chain.

Runs datagen and the reference chain of ``chain.py`` (pretrain, cml,
probe, sms, eval) in one process on the 64 x 512 sensor and run config
of the ``chain_dense_aug`` benchmark workload (2 train and 1 val scan,
augmentation in every stage), in a temporary directory, and prints one
line per subcommand: the peak of the memory that Python and numpy
allocated while it ran (``tracemalloc``) and the process's peak resident
set size so far (``ru_maxrss``). Tracing slows
the chain down several-fold and its bookkeeping adds to the resident set,
so compare these numbers only with the same script's. A memory claim is
one run on each source tree:

    PYTHONPATH=../lidarmoe-parent/src python tests/memory_chain.py
    PYTHONPATH=src python tests/memory_chain.py

Its name does not start with ``test_``, so pytest does not collect it.
"""

import resource
import tempfile
import tracemalloc

from chain import datagen, reference_chain, run_config, run_steps

# the datagen and run config of the chain_dense_aug workload, with fixed seeds
DATAGEN = {"n_train": 2, "n_val": 1, "beam_count": 64, "azimuth_steps": 512,
           "range_h": 64, "range_w": 512}
RUN = run_config("data", 7, epochs=1, augment=True, sms_epochs=2, probe_epochs=10)
STEPS = [datagen("data", DATAGEN), *reference_chain(RUN)]


def max_rss_mb() -> float:
    """The process's peak resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_chain(root) -> list:
    """Run ``STEPS`` in ``root``; returns ``(subcommand, traced peak MB,
    max RSS MB)`` per step."""
    rows = []
    tracemalloc.start()
    try:
        for step in STEPS:
            tracemalloc.reset_peak()
            run_steps(root, [step])
            rows.append((step[0], tracemalloc.get_traced_memory()[1] / 1e6, max_rss_mb()))
    finally:
        tracemalloc.stop()
    return rows


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_chain(tmp)
    print("subcommand  traced_peak_mb  max_rss_mb")
    for command, peak, rss in rows:
        print(f"{command:<10}  {peak:14.1f}  {rss:10.1f}")
