"""A square patch sweeping triangles out of a spatial mosaic.

The scape of a flat probe collects the Delaunay p-cells whose dual Voronoi
cells the probe intersects. For a 2-dimensional patch in R^3 these are the
Delaunay triangles crossed by the patch, each weighted by the area of the
crossing. Restricted to the patch's plane the Voronoi tessellation becomes
a power diagram of the projected sites, which is how the areas are found:
the scape reads only the sites, and the mosaic below is built only to
count its cells.

The expected area ratio is the same 3/2 that governs segments in R^3, the
constant being symmetric in p and d-p.
"""

import numpy as np

from voroscape import (build_mosaic, distortion, distortion_constant,
                       flat_patch_probe, poisson, run_experiment, sample,
                       sample_stiefel, scape_spec, unit_box_window,
                       voronoi_scape_flat)

rng = np.random.default_rng(3)
pts = sample(poisson(1500), unit_box_window(3), rng)
m = build_mosaic(pts)
print(f"mosaic: {len(pts)} sites, {m.n_cells(2)} triangles, "
      f"{m.n_cells(3)} tetrahedra")

frame = sample_stiefel(2, 3, rng)
probe = flat_patch_probe(frame, np.full(3, 0.5), "box", [0.15, 0.15])
s = voronoi_scape_flat(pts, probe)
mults = sorted(e.multiplicity for e in s.entries)
print(f"\npatch of area {probe.volume():.4f} meets {len(s.entries)} "
      f"dual Voronoi edges")
print(f"multiplicities: min {mults[0]}, max {mults[-1]}")
print(f"swept triangle area {s.total_volume:.4f}, "
      f"distortion {distortion(s, probe):.4f}")

print("\na segment probe is the p=1 special case of the same machinery:")
u = sample_stiefel(1, 3, rng)
line = flat_patch_probe(u, np.full(3, 0.5), "box", [0.1])
sl = voronoi_scape_flat(pts, line)
print(f"  line patch of length {line.volume():.2f} collects "
      f"{len(sl.entries)} dual edges, distortion {distortion(sl, line):.4f}")

print("\n40-trial experiment at rho=2000, patch side 0.3:")
r = run_experiment(scape_spec(3, 2, 2000, 0.3, 40, seed=1))
print(f"  mean distortion {r.mean:.4f} +- {r.stderr:.4f}")
print(f"  predicted 3/2 = {distortion_constant(2, 3):.4f},  z = {r.z:+.2f}")
