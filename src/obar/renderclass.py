"""Renderer class identities shared by the scene model, router, and bank."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RendererKind(enum.Enum):
    AP1_NEAREST = "AP1"
    AP3_VBAP = "VBAP"
    AMBI_MM = "AmbiMM"
    WFS_GAIN_DELAY = "WFS"
    PM_SINGLE_ZONE = "PM"
    DIFFUSE = "Diffuse"


KNOWN_RENDERER_NAMES = tuple(k.value for k in RendererKind)


@dataclass(frozen=True)
class RendererClass:
    """A renderer identity; ambisonic mode matching carries its order."""

    kind: RendererKind
    order: int | None = None

    def label(self) -> str:
        if self.kind is RendererKind.AMBI_MM and self.order is not None:
            return f"{self.kind.value}({self.order})"
        return self.kind.value

