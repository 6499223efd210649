"""The Voronoi path of a segment through a planar Delaunay mosaic.

Drops a Poisson point set in the unit square, builds its Delaunay mosaic,
and reads the Voronoi path of a probe segment: the power diagram of the
sites on the segment's line marks every Voronoi wall the segment crosses,
and each contributes the dual Delaunay edge, counted with crossing
multiplicity. The total length of those edges over the probe length is
the distortion; averaged over random probes it approaches 4/pi.
"""

from math import pi

import numpy as np

from voroscape import (build_mosaic, distortion, path_spec, poisson,
                       run_experiment, sample, segment_probe,
                       unit_box_window, voronoi_path)

rng = np.random.default_rng(7)
pts = sample(poisson(400), unit_box_window(2), rng)
m = build_mosaic(pts)
print(f"mosaic: {len(pts)} sites, {m.n_cells(1)} edges, "
      f"{m.n_cells(2)} triangles")

probe = segment_probe([0.25, 0.3], [0.75, 0.6])
s = voronoi_path(m, probe)
print(f"\nsegment of length {probe.volume():.4f} crosses "
      f"{len(s.entries)} Voronoi walls:")
for e in s.entries[:6]:
    print(f"  dual edge {e.sites}, multiplicity {e.multiplicity}, "
          f"length {e.volume:.4f}")
if len(s.entries) > 6:
    print(f"  ... {len(s.entries) - 6} more")
print(f"path length {s.total_volume:.4f}, "
      f"distortion {distortion(s, probe):.4f}")

print("\nthe same segment from the opposite end gives the same multiset:")
back = voronoi_path(m, segment_probe([0.75, 0.6], [0.25, 0.3]))
print(f"  forward == backward: {s.edge_multiset() == back.edge_multiset()}")

print("\n60-trial experiment at rho=1000, probe length 0.3:")
r = run_experiment(path_spec(2, 1000, 0.3, 60, seed=1))
print(f"  mean distortion {r.mean:.4f} +- {r.stderr:.4f}")
print(f"  predicted 4/pi  {4 / pi:.4f},  z = {r.z:+.2f}")
