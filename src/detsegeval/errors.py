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
    """Base class for ground-truth / prediction format errors."""

    code = "CocoFormat"


class MalformedJsonError(CocoFormatError):
    code = "MalformedJson"


class RleUnsupportedError(MalformedJsonError):
    code = "RleUnsupported"


class DegeneratePayloadError(MalformedJsonError):
    """A polygon with too few vertices, an odd coordinate count or no area."""

    code = "DegeneratePayload"


class MissingFieldError(CocoFormatError):
    code = "MissingField"

    def __init__(self, field, location=""):
        self.field = field
        where = f" in {location}" if location else ""
        super().__init__(f"missing required field '{field}'{where}")


class DuplicateImageIdError(CocoFormatError):
    code = "DuplicateImageId"


class UnknownImageRefError(CocoFormatError):
    code = "UnknownImageRef"


class MultipleCategoriesError(CocoFormatError):
    code = "MultipleCategories"


class SubmissionError(CocoFormatError):
    """Strict-mode rejection of a prediction file; carries the full report."""

    code = "SubmissionRejected"

    def __init__(self, report):
        self.report = report
        first = report.errors[0].message if report.errors else "unknown error"
        super().__init__(
            f"submission rejected: {len(report.errors)} error(s), first: {first}"
        )


# --- fusion / metrics --------------------------------------------------------

class EmptyInputError(DetSegEvalError):
    pass


class UnknownPresetError(DetSegEvalError):
    pass
