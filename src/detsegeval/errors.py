"""Exception types shared across the package.

File-format errors carry a stable ``code`` string that also appears in
validation reports and in the JSON emitted by the CLI.
"""


class DetSegEvalError(Exception):
    """Base class for all errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class GeometryError(DetSegEvalError):
    pass


class DegenerateRingError(GeometryError):
    """Polygon ring has fewer than 3 vertices or zero extent."""


class DimensionMismatchError(GeometryError):
    """Two rasters that must share a shape do not."""


class EmptyMaskError(GeometryError):
    """Operation requires at least one foreground pixel."""


class CoordinateBoundError(GeometryError):
    """A polygon vertex is not finite or lies beyond ``MAX_COORDINATE``."""


# --- file formats / validation ----------------------------------------------

class CocoFormatError(DetSegEvalError):
    """Base class for ground-truth / prediction format errors.  ``message``
    says what is wrong and ``location`` where (``"predictions[2]"``), and
    ``str()`` reads ``"location: message"``."""

    code = "CocoFormat"

    def __init__(self, message: str, location: str = ""):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class MalformedJsonError(CocoFormatError):
    code = "MalformedJson"


class RleUnsupportedError(MalformedJsonError):
    code = "RleUnsupported"


class DegeneratePayloadError(MalformedJsonError):
    """A box or polygon with no area, or a polygon with too few vertices
    or an odd coordinate count."""

    code = "DegeneratePayload"


class CategoryMismatchError(MalformedJsonError):
    code = "CategoryMismatch"


class OutsideImageError(MalformedJsonError):
    code = "OutsideImage"


class MissingFieldError(CocoFormatError):
    code = "MissingField"

    def __init__(self, field: str, location: str = ""):
        self.field = field
        super().__init__(f"missing {field}", location)


class DuplicateImageIdError(CocoFormatError):
    code = "DuplicateImageId"


class UnknownImageRefError(CocoFormatError):
    code = "UnknownImageRef"


class MultipleCategoriesError(CocoFormatError):
    code = "MultipleCategories"


class ScoreOutOfRangeError(CocoFormatError):
    code = "ScoreOutOfRange"


class WrongPayloadKindError(CocoFormatError):
    code = "WrongPayloadKind"


class SubmissionError(CocoFormatError):
    """Strict-mode rejection of a prediction file; carries the full report."""

    code = "SubmissionRejected"

    def __init__(self, report):
        self.report = report
        first = report.errors[0] if report.errors else "unknown error"
        super().__init__(f"submission rejected: {len(report.errors)} error(s), first: {first}")


# --- fusion / metrics --------------------------------------------------------

class EmptyInputError(DetSegEvalError):
    pass


class UnknownPresetError(DetSegEvalError):
    pass
