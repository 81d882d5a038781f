"""Exception hierarchy shared across the library."""


class RibbonError(Exception):
    """Base class for every library-specific failure."""


class GeometryError(RibbonError):
    pass


class NonSimplePolygon(GeometryError):
    pass


class TooFewVertices(GeometryError):
    pass


class DegenerateCell(GeometryError):
    pass


class UnknownCellId(RibbonError):
    pass


class UnknownVertex(RibbonError):
    pass


class NotNested(RibbonError):
    pass


class ConcentricCycles(RibbonError):
    pass


class HoleOutsideRibbon(RibbonError):
    pass


class FilamentEndpointOffBoundary(RibbonError):
    pass


class FilamentNotInRibbon(RibbonError):
    pass


class TooFewCycles(RibbonError):
    pass


class EmptyCollection(RibbonError):
    pass


class CollectionTooLarge(RibbonError):
    pass


class UnsupportedEntityKind(RibbonError):
    pass


class PointOutsideFrame(RibbonError):
    pass


class FrameTooSmall(RibbonError):
    pass


class PartialMap(RibbonError):
    pass


class VertexNotOnInnerBoundary(RibbonError):
    pass


class NonConvexRegion(RibbonError):
    pass


class SchemaViolation(RibbonError):
    pass


class UnresolvedReference(SchemaViolation):
    pass


class NonCanonicalRational(SchemaViolation):
    pass


class UnknownTarget(RibbonError):
    pass
