"""Cage-driven deformation of Gaussian splat models.

Deform a trained splat cloud by editing a coarse triangle cage: splat
centers move by mean value coordinate interpolation of the cage vertices,
and each splat's covariance is carried along by the local Jacobian of that
map. Cages can be built from bounding boxes, fitted to target shapes, and
blended for partial-strength edits.
"""

from .cage import (CageMesh, TriangleMesh, build_template_cage,
                   interpolate_cage, read_cage_obj, write_cage_obj)
from .errors import (CagewarpError, NonManifoldCageError,
                     DegenerateRotationError, FitDivergedError,
                     NearSurfaceError, PipelineError, PlyFormatError,
                     PlyReadError, TopologyMismatchError,
                     UnsupportedLayoutError)
from .fitting import FitReport, fit_deformed_cage
from .metrics import (baseline_bbox_scale, chamfer_distance, load_target,
                      sample_points)
from .mvc import MVCWeights, deform_points, mvc_weights
from .pipeline import PipelineConfig, compare_models, run_pipeline
from .splats import GaussianCloud, read_gs_ply, write_gs_ply
from .transport import (JacobianField, build_jacobian_field, deform_cloud,
                        jacobian_fd, transform_covariance)

__version__ = "0.1.0"

__all__ = [
    "CageMesh", "CagewarpError", "NonManifoldCageError",
    "DegenerateRotationError", "FitDivergedError", "FitReport",
    "GaussianCloud", "JacobianField", "MVCWeights", "NearSurfaceError",
    "PipelineConfig", "PipelineError", "PlyFormatError", "PlyReadError",
    "TopologyMismatchError", "TriangleMesh", "UnsupportedLayoutError",
    "baseline_bbox_scale", "build_jacobian_field", "build_template_cage",
    "chamfer_distance", "compare_models", "deform_cloud", "deform_points",
    "fit_deformed_cage", "interpolate_cage", "jacobian_fd", "load_target",
    "mvc_weights", "read_cage_obj", "read_gs_ply", "run_pipeline",
    "sample_points", "transform_covariance", "write_cage_obj",
    "write_gs_ply",
]
