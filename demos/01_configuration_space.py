"""Walk through the candidate configuration space and its cost models.

Run: python demos/01_configuration_space.py
"""

import numpy as np

from baoc import (
    ADAMW16,
    BlockShape,
    CostModel,
    ProblemBlock,
    RiskSignals,
    aggressiveness,
    build_problem,
    enumerate_candidates,
    state_bytes,
)

# Every block chooses from the same mechanism/precision grid: adaptive
# scaling, momentum, decoupled weight decay, factorized second moments, and
# an 8/16/32-bit state width. Stateless candidates (plain SGD/SGDW) have no
# state tensors, so their bit-width axis collapses to a single entry.
matrix = BlockShape((512, 2048))
vector = BlockShape((2048,))

print("== Candidate grid ==")
print(f"matrix block {matrix.dims}: {len(enumerate_candidates(matrix))} candidates")
print(f"vector block {vector.dims}: {len(enumerate_candidates(vector))} candidates "
      "(factorized entries need two non-degenerate axes)")
# `exclude` selectors (`baoc allocate --exclude FAMILY[:BITS]`) narrow the
# grid; without 8-bit states the diagnostics need no 8-bit precision signal.
no8 = [f"{family}:8" for family in ("adamw", "adam", "sgdm", "sgdwm", "adafactor")]
signals = RiskSignals(geometry=0.5, momentum=0.5, distortion=0.5, structure=0.5, precision={32: 0.0, 16: 0.01})
problem = build_problem([ProblemBlock(0, "matrix", (matrix,))], {}, signals={0: signals}, exclude=no8)
print(f"matrix block without 8-bit states: {len(problem.configs[0])} candidates")

# State memory is exactly the persistent optimizer-owned buffers: one tensor
# per kept moment, or row+column vectors when factorized, at bits/8 bytes per
# element. The aggressiveness score is zero only for full AdamW32 and grows
# with every dropped mechanism or bit.
print("\n== Per-candidate costs on the matrix block ==")
print(f"{'candidate':>14} {'state bytes':>12} {'aggressiveness':>15}")
for config in enumerate_candidates(matrix):
    label = f"{config.family}{config.state_bits if not config.stateless else ''}"
    print(f"{label:>14} {state_bytes(config, matrix):>12,} {aggressiveness(config):>15.2f}")

baseline = state_bytes(ADAMW16, matrix)
print(f"\nAdamW16 baseline for this block: {baseline:,} bytes")
print("a budget ratio of 0.5 would allow", f"{baseline // 2:,}", "bytes for it")

# Update-time ratios come from a static placeholder table until `baoc bench`
# measures the host; either way AdamW16 is pinned to ratio 1.
print("\n== Static update-time cost model (relative to AdamW16) ==")
model = CostModel.static_default()
for (family, bits), ratio in sorted(model.ratio_table.items()):
    print(f"  {family}:{bits:<3} -> {ratio:.2f}")
print("run `baoc bench --dims 512x2048` to replace this table with measurements")
