"""Error types raised across the renderer.

Every error carries the name of the component it belongs to so the CLI can
emit a single-line diagnostic naming the failing module and field.
"""

from __future__ import annotations


class ObarError(Exception):
    """Base class for all package errors."""

    component = "obar"


# scene model -----------------------------------------------------------

class SchemaError(ObarError):
    """Unknown or missing field, or a structurally malformed document."""

    component = "scene_model"


class RangeError(ObarError):
    """A field value violates its documented range.

    Carries the offending field name and, when known, the object id.
    """

    component = "scene_model"

    def __init__(self, message: str, field: str = "", object_id: str | None = None):
        super().__init__(message)
        self.field = field
        self.object_id = object_id


class MissingStem(ObarError):
    component = "scene_model"


class RateMismatch(ObarError):
    component = "scene_model"


# context unit ----------------------------------------------------------

class EmptyLayout(ObarError):
    component = "context_unit"


class NoListener(ObarError):
    component = "context_unit"


class BlockTooShort(ObarError):
    component = "context_unit"


class LengthMismatch(ObarError):
    component = "context_unit"


# scene adapter ---------------------------------------------------------

class UnknownProperty(ObarError):
    component = "scene_adapter"


class NoDialogueObject(ObarError):
    component = "scene_adapter"


class NonPositiveTau(ObarError):
    component = "scene_adapter"


class ExpressionError(ObarError):
    """Bad rule condition: malformed text at parse time, or an unknown field /
    non-boolean result at evaluation time."""

    component = "scene_adapter"


# renderer bank ---------------------------------------------------------

class NotBracketed(ObarError):
    component = "renderer_bank"


class RankDeficient(ObarError):
    component = "renderer_bank"


class SourceInsideArray(ObarError):
    component = "renderer_bank"


class TooFewSpeakers(ObarError):
    component = "renderer_bank"


class StateMismatch(ObarError):
    component = "renderer_bank"


# dsp core --------------------------------------------------------------

class NegativeDelay(ObarError):
    component = "dsp_core"


class UnsupportedRate(ObarError):
    component = "dsp_core"


class TiltOutOfReach(ObarError, ValueError):
    """A spectral tilt beyond what the first-order shelf can realise."""

    component = "dsp_core"


# cli / io --------------------------------------------------------------

class DuplicateDeviceId(ObarError):
    component = "cli_io"


class JobError(ObarError):
    component = "cli_io"
