"""Walkthrough: the benchmark harness at desk scale.

Five table families are built in: mesh-density accuracy (T1), smooth-method
superiority (T2), dimension scaling (T3), noise attenuation (T4), and the
1/sqrt(C) combination-averaging study.  Everything is deterministic under a
fixed seed.
"""

from gradsurf import run_benchmark

print("=== T1: gradient accuracy vs. mesh density ===")
rep = run_benchmark("T1", seed=0)
for row, timing in zip(rep["rows"], rep["timing"]):
    print(f"  {row['points']:>6} points   rel_err {row['rel_err']:.4f}   "
          f"{timing['wall_time']:.1f}s for {row['M']} queries")

print()
print("=== averaging: error vs. combination count ===")
rep = run_benchmark("averaging", seed=0)
for row in rep["rows"]:
    print(f"  C = {row['combinations']:2d}   mean abs error {row['avg_abs_err']:.4f}")
print(f"  fitted log-log slope: {rep['notes']['log_log_slope']:.3f} "
      "(1/sqrt(C) predicts -0.5)")

print()
print("=== T4: noise attenuation across dimensions ===")
rep = run_benchmark("T4", seed=0)
for row in rep["rows"]:
    print(f"  N = {row['dimensions']:3d}   R1 = {row['r1']:.3f}")
print("  Higher dimension -> more stencil points per query -> "
      "stronger noise averaging.")
