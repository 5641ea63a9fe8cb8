"""Exception taxonomy for the calibration pipeline.

Every error carries the pipeline stage it belongs to so the CLI can map
failures onto stable exit codes (1 parse, 2 extraction, 3 coarse, 4 refine).
"""


class CalibError(Exception):
    """Base class for all pipeline errors."""

    stage = "internal"


class ParseError(CalibError):
    stage = "parse"


class DimensionMismatch(ParseError):
    pass


class NotARotation(CalibError):
    stage = "parse"


class ExtractionError(CalibError):
    stage = "extraction"


class NoGroundPlane(ExtractionError):
    pass


class NoLanePoints(ExtractionError):
    pass


class NoPolePoints(ExtractionError):
    pass


class DegenerateFrame(ExtractionError):
    pass


class InsufficientLines(ExtractionError):
    pass


class EmptyTarget(ExtractionError):
    pass


class CoarseError(CalibError):
    stage = "coarse"


class NoSolution(CoarseError):
    pass


class DegenerateNormals(CoarseError):
    pass


class NoValidCandidate(CoarseError):
    pass


class RefineError(CalibError):
    stage = "refine"


class EmptyList(CalibError):
    stage = "internal"


STAGE_EXIT_CODES = {
    "parse": 1,
    "extraction": 2,
    "coarse": 3,
    "refine": 4,
    "internal": 1,
}
