"""Voronoi paths and scapes of probe shapes in random Delaunay mosaics.

The library builds Delaunay mosaics of point samples, intersects probe
segments and flat patches with the dual Voronoi tessellation, sums mixed
volumes of dual cell pairs over growing balls, and checks the resulting
distortion statistics against closed-form constants by seeded Monte
Carlo experiments.
"""

from .errors import (ConsistencyError, CoverageError, DegenerateInputError,
                     UnboundedCellError)
from .geometry import (Frame, Simplex, affine_basis, circumsphere,
                       frame_projection_volume, orthonormalize, polygon_area,
                       polygon_disk_area, simplex_volume)
from .moments import (MomentEstimate, MomentQuery, distortion_constant,
                      distortion_double_factorial, distortion_exact_string,
                      distortion_table, moment_closed_form,
                      moment_monte_carlo, sample_stiefel)
from .pointproc import (ProcessSpec, Window, explicit, lattice, poisson,
                        read_points_csv, sample, unit_ball_volume,
                        unit_box_window, window_volume, write_points_csv)
from .delaunay import (DualCell, Mosaic, build_mosaic, circumradius_stats,
                       clipped_voronoi_volumes, export_mosaic_json,
                       nearest_site, pivot_point, validate_empty_sphere,
                       voronoi_dual)
from .scape import (Probe, Scape, ScapeEntry, WeightedSite, distortion,
                    flat_patch_probe, power_nearest, project_weights,
                    segment_probe, voronoi_path, voronoi_scape_flat,
                    write_scape_csv)
from .mixedvol import (MixedCell, MixedSumReport, RegularityReport,
                       ball_sum, mixed_cell, mixed_volume_sum, partition_sum,
                       regularity_report, tile_measure)
from .experiments import (ExperimentResult, ExperimentSpec, default_margin,
                          mixedvol_spec, moments_spec, path_spec,
                          run_constants, run_experiment, scape_spec)

__version__ = "0.1.0"

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
