"""Exception catalog shared by all pipeline stages."""


class ShapeManifoldError(Exception):
    """Base class for every error raised by this package."""


class MalformedStl(ShapeManifoldError):
    """STL byte stream cannot be parsed (truncated record, bad token)."""


class EmptyMesh(ShapeManifoldError):
    """Zero facets or zero vertices where geometry is required."""


class DimensionMismatch(ShapeManifoldError):
    """Vector or matrix length disagrees with what the operation expects."""


class SingularLattice(ShapeManifoldError):
    """Lattice axes do not span an invertible (orthogonal) frame."""


class EmptyDatabase(ShapeManifoldError):
    """No snapshots where at least one is required."""


class EmptyBasis(ShapeManifoldError):
    """Operation requires at least one retained mode."""


class DegenerateTrainingSet(ShapeManifoldError):
    """Training geometries carry no variation; no modes can be extracted."""


class DegenerateAbscissa(ShapeManifoldError):
    """Regression abscissa has zero variance."""


class CollinearPoints(ShapeManifoldError):
    """Points do not span a two-dimensional region."""


class InfeasibleRegion(ShapeManifoldError):
    """Feasible region is empty or too small to sample."""


class EmptyRegion(ShapeManifoldError):
    """No mesh vertices inside the configured region box."""


class DuplicateParams(ShapeManifoldError):
    """Two database entries share the same parameter vector."""


class SingularSystem(ShapeManifoldError):
    """Interpolation system is too ill-conditioned to solve reliably."""


class ArtifactError(ShapeManifoldError):
    """On-disk artifact has a wrong magic string, version, or layout."""
