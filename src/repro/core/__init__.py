"""The paper's contribution: the PicoDriver framework.

Subpackages/modules:

* :mod:`repro.core.structs` — C structure layout modeling (sizes, alignment,
  offsets) backing the driver's in-memory state.
* :mod:`repro.core.dwarf` — a miniature DWARF: debug-information entries
  (DIEs) emitted into simulated module binaries.
* :mod:`repro.core.extract` — the ``dwarf-extract-struct`` tool: walks DWARF
  and generates padded-layout headers for the fields the LWK needs
  (paper section 3.2, Listing 1).
* :mod:`repro.core.address_space` — kernel virtual address space layouts and
  the unification that lets the kernels dereference each other's pointers
  (section 3.1, Figure 3).
* :mod:`repro.core.sync` — cross-kernel spinlocks over shared memory
  (section 3.3).
* :mod:`repro.core.callbacks` — Linux-invokable callbacks living in
  McKernel's TEXT (section 3.3).
* :mod:`repro.core.picodriver` — the driver-split framework itself.
* :mod:`repro.core.hfi_pico` — the Intel OmniPath HFI PicoDriver.
"""

from .structs import (ARRAY, ENUM, PTR, U8, U16, U32, U64, CStructDef,
                      Field, StructInstance)
from .dwarf import DwarfDie, DwarfInfo, ModuleBinary, emit_dwarf
from .extract import ExtractedLayout, StructView, dwarf_extract_struct, generate_header
from .address_space import (KernelAddressSpace, Region,
                            linux_layout, mckernel_original_layout,
                            mckernel_unified_layout, unify_address_spaces)
from .sync import CrossKernelSpinLock
from .callbacks import CallbackRegistry
from .picodriver import PicoDriver, PicoDriverRegistry
# must come last: pulls in repro.linux, which imports the modules above
from .hfi_pico import EXTRACTION_MANIFEST, HFIPicoDriver
from .mlx_pico import MlxMemRegPicoDriver

__all__ = [
    "ARRAY", "ENUM", "EXTRACTION_MANIFEST", "HFIPicoDriver",
    "PTR", "U8", "U16", "U32", "U64",
    "CStructDef", "CallbackRegistry", "CrossKernelSpinLock", "DwarfDie",
    "DwarfInfo", "ExtractedLayout", "Field",
    "KernelAddressSpace", "MlxMemRegPicoDriver", "ModuleBinary",
    "PicoDriver", "PicoDriverRegistry",
    "Region", "StructInstance", "StructView", "dwarf_extract_struct",
    "emit_dwarf", "generate_header", "linux_layout",
    "mckernel_original_layout", "mckernel_unified_layout",
    "unify_address_spaces",
]
