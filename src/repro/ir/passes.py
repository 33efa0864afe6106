"""The compile trace: one :class:`PassRecord` per step of
:func:`repro.ir.compile`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PassRecord:
    """One trace entry: what a compile step did and how long it took."""

    name: str
    seconds: float
    summary: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (trace export, bench compile-trace sections)."""
        return {"name": self.name, "seconds": self.seconds,
                "summary": self.summary}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" — {self.summary}" if self.summary else ""
        return f"{self.name}: {self.seconds * 1e3:.1f} ms{suffix}"
