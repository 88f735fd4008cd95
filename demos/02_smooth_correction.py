"""Walkthrough: the smooth-approximating-surface correction, axis by axis.

Between two mesh nodes the plain chord gradient ignores curvature.  The
smooth method fits a small polynomial arc over the chord whose end tangents
bisect the angles to the neighboring chords, intersects the query's vertical
line with that arc, and tilts the chord gradient through the intersection
point.  On smooth functions this buys several orders of magnitude.
"""

import numpy as np

from gradsurf import (
    MeshIndex,
    evaluate_gradient,
    evaluate_smooth,
    validate_training_set,
)
from gradsurf.neighbors import axis_stencil
from gradsurf.smooth import build_intersection, segment_angles, solve_intersection

nodes = np.linspace(2.0, 5.0, 16)
f = np.sqrt
training = validate_training_set((nodes.reshape(-1, 1), f(nodes)), n=1)
mesh = MeshIndex(axes=(nodes,))

query = np.array([3.33])
truth = f(query[0])

print("=== Anatomy of one axis correction ===")
stencil = axis_stencil(training, mesh, mesh.cell_of(query), axis=0)
angles = segment_angles(stencil)
print(f"stencil x        {np.round([v for v in stencil.x], 3)}")
print(f"chord angles     F0={angles.F0:.4f}  F1={angles.F1:.4f}  F2={angles.F2:.4f}")
print(f"tangent tweaks   Fg1={angles.Fg1:.5f}  Fg2={angles.Fg2:.5f}")

problem = build_intersection(stencil, angles, query[0])
x_star, y_star, iters = solve_intersection(problem)
print(f"rotated frame    B={problem.params.B:.4f}, arc/line meet at "
      f"({x_star:.4f}, {y_star:.6f}) after {iters} Newton iteration(s)")

print()
print("=== Chord gradient vs. corrected gradient ===")
grad = evaluate_gradient(training, query, mesh=mesh)
smooth = evaluate_smooth(training, query, mesh)
print(f"true value       {truth:.8f}")
print(f"chord estimate   {grad.y_hat:.8f}   error {abs(grad.y_hat - truth):.2e}")
print(f"smooth estimate  {smooth.y_hat:.8f}   error {abs(smooth.y_hat - truth):.2e}")
print(f"improvement      {abs(grad.y_hat - truth) / abs(smooth.y_hat - truth):.0f}x")

print()
print("=== The same effect in three dimensions ===")
g = lambda x: 0.3 * x[:, 0] ** 0.5 + 0.5 * x[:, 1] ** 0.5 + 0.7 * x[:, 2] ** 0.5
grids = np.meshgrid(nodes, nodes, nodes, indexing="ij")
x3 = np.stack([a.ravel() for a in grids], axis=1)
training3 = validate_training_set((x3, g(x3)), n=3)
mesh3 = MeshIndex(axes=(nodes, nodes, nodes))

rng = np.random.default_rng(1)
errs_g, errs_s = [], []
for _ in range(40):
    q = rng.uniform(2.3, 4.6, 3)
    t = g(q.reshape(1, -1))[0]
    errs_g.append(abs(evaluate_gradient(training3, q, mesh=mesh3).y_hat - t))
    errs_s.append(abs(evaluate_smooth(training3, q, mesh3).y_hat - t))
print(f"gradient mean error  {np.mean(errs_g):.2e}")
print(f"smooth   mean error  {np.mean(errs_s):.2e}")
print(f"ratio                {np.mean(errs_s) / np.mean(errs_g):.4f}")
