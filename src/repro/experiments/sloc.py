"""The porting-effort claim (paper sections 1 and 3).

"The Intel OmniPath Linux driver amounts to about 50K source lines of
code.  From this codebase, the PicoDriver framework enabled us to port
less than 3K SLOC to McKernel" — i.e. the LWK-resident fast path is a
small fraction of the driver it cooperates with, and the three claimed
ioctl commands are a small slice of the driver's surface.

This module measures the same two ratios over *this* codebase:

* SLOC of the LWK-resident fast path (``repro/core/hfi_pico.py``) versus
  the Linux-resident driver stack it leaves untouched
  (``repro/linux/**``);
* syscall-surface coverage: claimed operations vs the driver's full
  file-operation + ioctl surface.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple


def count_sloc(path: str) -> int:
    """Source lines of code: non-blank, non-comment physical lines."""
    sloc = 0
    in_docstring = False
    with open(path, "r") as f:
        for line in f:
            stripped = line.strip()
            if not stripped:
                continue
            if in_docstring:
                if '"""' in stripped or "'''" in stripped:
                    in_docstring = False
                continue
            if stripped.startswith(('"""', "'''")):
                quote = stripped[:3]
                # one-line docstring?
                if not (stripped.count(quote) >= 2 and len(stripped) > 3):
                    in_docstring = True
                continue
            if stripped.startswith("#"):
                continue
            sloc += 1
    return sloc


def count_tree(root: str) -> int:
    """Total SLOC of every ``.py`` file under ``root``."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                total += count_sloc(os.path.join(dirpath, name))
    return total


@dataclass
class SlocResult:
    """Porting-effort inventory."""

    pico_sloc: int
    linux_stack_sloc: int
    hfi1_driver_sloc: int
    claimed_fileops: Tuple[str, ...]
    total_fileops: Tuple[str, ...]
    claimed_ioctls: int
    total_ioctls: int

    @property
    def sloc_fraction(self) -> float:
        """Fast-path SLOC as a fraction of the Linux-resident stack."""
        return self.pico_sloc / self.linux_stack_sloc

    def render(self) -> str:
        """Plain-text porting-effort summary."""
        return "\n".join([
            "Porting effort (paper: <3K of ~50K driver SLOC ported)",
            f"  HFI PicoDriver (LWK fast path):   {self.pico_sloc:6d} SLOC",
            f"  hfi1 Linux driver (unmodified):   {self.hfi1_driver_sloc:6d} SLOC",
            f"  full Linux-resident stack:        {self.linux_stack_sloc:6d} SLOC",
            f"  fast-path fraction of the stack:  "
            f"{100 * self.sloc_fraction:.1f}%",
            f"  file operations claimed:          "
            f"{len(self.claimed_fileops)} of {len(self.total_fileops)} "
            f"({', '.join(self.claimed_fileops)})",
            f"  ioctl commands claimed:           "
            f"{self.claimed_ioctls} of {self.total_ioctls} "
            f"(the expected-receive TID commands)",
        ])


def run_sloc() -> SlocResult:
    """Measure fast-path vs Linux-stack SLOC and claimed surface."""
    import repro
    root = os.path.dirname(os.path.abspath(repro.__file__))
    pico = count_sloc(os.path.join(root, "core", "hfi_pico.py"))
    linux_stack = count_tree(os.path.join(root, "linux"))
    hfi1 = count_tree(os.path.join(root, "linux", "hfi1"))
    from ..linux.hfi1 import ALL_IOCTLS, TID_IOCTLS
    return SlocResult(
        pico_sloc=pico,
        linux_stack_sloc=linux_stack,
        hfi1_driver_sloc=hfi1,
        claimed_fileops=("writev", "ioctl[TID]"),
        total_fileops=("open", "writev", "ioctl", "poll", "mmap",
                       "lseek", "close"),
        claimed_ioctls=len(TID_IOCTLS),
        total_ioctls=len(ALL_IOCTLS),
    )
