"""The PicoDriver framework: fast-path/slow-path device driver splitting.

A :class:`PicoDriver` is the small, LWK-resident part of a device driver.
For each device-file syscall the LWK asks the driver whether it *claims*
the call (e.g. the HFI PicoDriver claims ``writev`` and exactly three of
the driver's dozen-plus ``ioctl`` commands); claimed calls run locally on
the LWK core, everything else is transparently offloaded to the unmodified
Linux driver (paper section 3).

The framework enforces the porting prerequisites at attach time:

* the kernel virtual address spaces must be unified (section 3.1) — the
  fast path dereferences Linux driver structures;
* structure layouts must come from DWARF extraction of the *loaded* Linux
  module binary (section 3.2) — attaching against a module whose version
  differs from the extraction source is refused;
* completion callbacks must be registered in LWK TEXT through the
  cross-kernel callback registry (section 3.3).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional

from ..errors import DriverError
from .address_space import validate_unification
from .callbacks import CallbackRegistry
from .extract import ExtractedLayout, StructView, dwarf_extract_struct


class PicoDriver:
    """The chassis every LWK fast-path driver is built on.

    A subclass states its porting contract as declarations and the
    chassis runs the section-3 checklist from them:

    * ``EXTRACTION_MANIFEST`` — ``{struct: [field, ...]}``, the slice of
      the Linux driver's state the fast path reads (section 3.2);
    * ``CLAIMS`` — ``{syscall: ioctl commands}``, the calls served on
      the LWK core; ``None`` in place of the commands claims every call
      of that syscall;
    * ``_completion`` (optional) — the completion callback Linux runs
      from IRQ context (section 3.3).

    Beyond those, a subclass keeps its device handle (set in ``attach``
    after ``super().attach(lwk)``) and one generator per claimed
    syscall named ``fast_<syscall>`` (e.g. ``fast_writev``).
    """

    #: struct -> the fields the fast path needs
    EXTRACTION_MANIFEST: Dict[str, List[str]] = {}
    #: syscall -> claimed ioctl commands (``None``: every call); no
    #: table at all is a porting bug :meth:`claims` reports typed
    CLAIMS: Optional[Dict[str, Optional[Collection[int]]]] = None

    def __init__(self, linux_driver) -> None:
        self.linux_driver = linux_driver
        #: device file path the driver serves, e.g. "/dev/hfi1_0"
        self.device_path: str = linux_driver.device_path
        #: the shipped binary is all we consume for layouts
        self.module = linux_driver.binary
        self.layouts: Dict[str, ExtractedLayout] = {}
        self.lwk = None
        self.heap = None
        self.callbacks: Optional[CallbackRegistry] = None
        self.completion_addr: Optional[int] = None

    def attach(self, lwk) -> None:
        """Run the section-3 porting checklist against the LWK."""
        # 3.1: address space unification is a hard prerequisite — the
        # fast path dereferences Linux structures
        validate_unification(lwk.linux.aspace, lwk.aspace)
        self.lwk = lwk
        self.heap = lwk.node.kheap
        # 3.2: extract structure layouts from the module's DWARF
        for struct, fields in self.EXTRACTION_MANIFEST.items():
            layout = dwarf_extract_struct(self.module, struct, fields)
            self.require_layout_version(layout, self.linux_driver.version)
            self.layouts[struct] = layout
        if hasattr(self, "_completion"):
            # 3.3: register the completion callback in McKernel TEXT and
            # make it invokable from Linux; it frees LWK memory from
            # Linux CPUs
            if self.linux_driver.callbacks is None:
                self.linux_driver.callbacks = CallbackRegistry(
                    {"linux": lwk.linux.aspace, "mckernel": lwk.aspace})
            self.callbacks = self.linux_driver.callbacks
            self.completion_addr = self.callbacks.register(
                "mckernel", self._completion)
            lwk.alloc.foreign_free_enabled = True

    def claims(self, syscall: str, args: tuple) -> bool:
        """Whether this invocation runs on the fast path, per ``CLAIMS``.

        Typed even at the base class: a driver with no ``CLAIMS`` is a
        porting bug, and the dispatcher must surface it as a
        :class:`DriverError` an application can handle — never a bare
        ``NotImplementedError`` that escapes the syscall layer.
        """
        if self.CLAIMS is None:
            raise DriverError(
                f"{type(self).__name__} declares no CLAIMS; a PicoDriver "
                f"must explicitly claim or offload every device syscall")
        if syscall not in self.CLAIMS:
            return False
        commands = self.CLAIMS[syscall]
        # an ioctl with no command is the slow path's to refuse, typed
        return commands is None or (len(args) > 1 and args[1] in commands)

    def _view(self, struct: str, addr: int,
              kernel: str = "mckernel") -> StructView:
        """A DWARF-layout view of Linux driver state; ``kernel`` is the
        context *performing* the accesses (a completion callback runs
        on a Linux CPU)."""
        self.lwk.aspace.check_access(addr, f"Linux {struct}")
        return StructView(self.layouts[struct], self.heap, addr,
                          kernel=kernel)

    # the framework dispatcher *returns* the handler's generator
    def fast_call(self, task, syscall: str, args: tuple):  # pd-ignore[PD003]
        """Dispatch to the ``fast_<syscall>`` generator."""
        handler = getattr(self, f"fast_{syscall}", None)
        if handler is None:
            raise DriverError(
                f"{type(self).__name__} claims {syscall} but implements "
                f"no fast_{syscall}")
        return handler(task, *args)

    @staticmethod
    def require_layout_version(layout: ExtractedLayout,
                               module_version: str) -> None:
        """DWARF layouts are only valid for the module they came from."""
        if layout.source_version != module_version:
            raise DriverError(
                f"layout for {layout.struct_name} extracted from "
                f"v{layout.source_version} but loaded module is "
                f"v{module_version}; re-run dwarf-extract-struct")


class PicoDriverRegistry:
    """Per-LWK registry mapping device paths to their PicoDrivers."""

    def __init__(self) -> None:
        self._drivers: Dict[str, PicoDriver] = {}

    def register(self, driver: PicoDriver) -> None:
        """Register a driver for its device path (one per device)."""
        if not driver.device_path:
            raise DriverError(f"{type(driver).__name__} has no device_path")
        if driver.device_path in self._drivers:
            raise DriverError(
                f"a PicoDriver is already registered for {driver.device_path}")
        self._drivers[driver.device_path] = driver

    def unregister(self, device_path: str) -> None:
        """Remove the driver registered for ``device_path``."""
        if device_path not in self._drivers:
            raise DriverError(f"no PicoDriver for {device_path}")
        del self._drivers[device_path]

    def lookup(self, device_path: str) -> Optional[PicoDriver]:
        """The PicoDriver for ``device_path``, or None."""
        return self._drivers.get(device_path)

    def decide(self, device_path: str, syscall: str, args: tuple) -> bool:
        """Should this invocation run on the LWK fast path?"""
        driver = self._drivers.get(device_path)
        return driver is not None and driver.claims(syscall, args)

    def __len__(self) -> int:
        return len(self._drivers)
