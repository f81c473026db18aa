#!/usr/bin/env python3
"""Chemical-scale simulation: a million molecules deciding a threshold.

Population protocols are chemical reaction networks: agents are
molecules, states are species, interactions are bimolecular reactions.
The paper's motivation for *few states* is exactly that each state is a
chemical species that must be engineered.

This example exercises the simulation ladder on populations far beyond
what per-interaction simulation can handle:

* ``CountScheduler``          — exact, O(|Q|) per interaction;
* ``VectorEnsembleScheduler`` — tau-leaping (here one trial at a time):
  thousands of interactions per numpy step, the only one that reaches
  n = 10^6 in seconds.

Run:  python examples/chemical_scale_simulation.py
"""

import time

from repro import binary_threshold, majority_protocol
from repro.fmt import render_table, section
from repro.simulation import CountScheduler, VectorEnsembleScheduler

# ----------------------------------------------------------------------
# The detection system: "are at least 8 signal molecules present?"
# ----------------------------------------------------------------------
protocol = binary_threshold(8)
print(f"reaction network: {protocol.num_states} species, {protocol.num_transitions} reactions")
print("(each transition p, q -> p', q' is the bimolecular reaction p + q -> p' + q')")

# ----------------------------------------------------------------------
# Throughput ladder.
# ----------------------------------------------------------------------
print(section("Simulator ladder: time to consensus by population size"))
rows = []
for n in (100, 1_000, 10_000):
    t0 = time.perf_counter()
    CountScheduler(protocol, seed=0).run(n, max_steps=40 * n)
    t_count = time.perf_counter() - t0

    t0 = time.perf_counter()
    VectorEnsembleScheduler(protocol, trials=1, seed=0).run(n, max_parallel_time=40)
    t_leap = time.perf_counter() - t0
    rows.append([n, f"{t_count:.3f}s", f"{t_leap:.3f}s"])
print(render_table(["n", "count-based", "tau-leap"], rows))

# ----------------------------------------------------------------------
# The headline run: one million molecules.
# ----------------------------------------------------------------------
print(section("n = 1,000,000 molecules (tau-leap engine only)"))
t0 = time.perf_counter()
scheduler = VectorEnsembleScheduler(protocol, trials=1, seed=7)
result = scheduler.run(1_000_000, max_parallel_time=60)
elapsed = time.perf_counter() - t0
interactions = int(result.interactions[0])
print(f"converged: {result.converged[0]} in {result.parallel_times[0]:.1f} units of parallel time")
print(f"final consensus: {result.verdicts[0]} (1,000,000 >= 8)")
print(f"wall clock: {elapsed:.2f}s for {interactions:,} simulated interactions")
print(f"throughput: {interactions / max(elapsed, 1e-9):,.0f} interactions/second")

# ----------------------------------------------------------------------
# Chemical majority: which of two species is more abundant?
# ----------------------------------------------------------------------
print(section("Chemical majority at n = 100,000 (clear margin)"))
m = majority_protocol()
t0 = time.perf_counter()
result = VectorEnsembleScheduler(m, trials=1, seed=3).run(
    {"x": 80_000, "y": 20_000}, max_parallel_time=200
)
elapsed = time.perf_counter() - t0
print(f"80k x-molecules vs 20k y-molecules -> consensus {result.verdicts[0]}")
print(f"({result.parallel_times[0]:.1f} parallel time, {elapsed:.2f}s wall clock)")
print()
print("Note: the 4-state majority protocol is exponentially slow on *narrow*")
print("margins (its follower tug-of-war is a biased random walk); fast majority")
print("needs many more states [7] — the very trade-off the paper studies.")
