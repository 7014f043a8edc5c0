"""Exception types shared across the package."""


class CagewarpError(Exception):
    """Base class for all package-specific errors."""


class PlyFormatError(CagewarpError, ValueError):
    """Malformed or unsupported PLY header (missing property, bad format line)."""


class UnsupportedLayoutError(PlyFormatError):
    """Vertex layout outside the supported spherical-harmonics widths."""


class PlyReadError(CagewarpError, IOError):
    """Truncated or unreadable PLY body; message carries the byte offset."""


class DegenerateRotationError(CagewarpError, ValueError):
    """Quaternion with (near-)zero norm cannot define a rotation."""


class NonManifoldCageError(CagewarpError, ValueError):
    """Cage mesh is not a closed, consistently wound 2-manifold."""


class TopologyMismatchError(CagewarpError, ValueError):
    """Two cages expected to share topology do not."""


class NearSurfaceError(CagewarpError, ValueError):
    """Query point too close to the cage surface for the requested operation."""


class FitDivergedError(CagewarpError, RuntimeError):
    """Optimization produced a non-finite loss."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"non-finite loss at iteration {iteration}")


class PipelineError(CagewarpError, RuntimeError):
    """Stage-tagged failure in the end-to-end pipeline."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")
