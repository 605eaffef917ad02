"""A driver release's debug info is built once per process and shared.

``struct_defs`` and ``build_module`` of ``linux/hfi1``, ``linux/pxd``
and ``linux/mlx`` return one object per driver version, however the
version is passed, and every driver instance of that version (on every
node of every machine) holds it read-only.
"""

from dataclasses import replace

import pytest

from repro.config import OSConfig
from repro.core import dwarf_extract_struct
from repro.core.dwarf import once_per_version
from repro.experiments import build_machine
from repro.linux.hfi1 import debuginfo as hfi1_debuginfo
from repro.linux.mlx import MlxDriver
from repro.linux.mlx import debuginfo as mlx_debuginfo
from repro.linux.pxd import debuginfo as pxd_debuginfo
from repro.params import default_params

DEBUGINFO = (hfi1_debuginfo, pxd_debuginfo, mlx_debuginfo)


@pytest.mark.parametrize("debuginfo", DEBUGINFO,
                         ids=lambda m: m.__name__.split(".")[-2])
def test_one_object_per_version_however_it_is_asked_for(debuginfo):
    current = debuginfo.CURRENT_VERSION
    for build in (debuginfo.build_module, debuginfo.struct_defs):
        one = build()
        assert build(current) is one
        assert build(version=current) is one
        nxt = build(debuginfo.NEXT_VERSION)
        assert nxt is not one
        assert build(version=debuginfo.NEXT_VERSION) is nxt


@pytest.mark.parametrize("debuginfo", DEBUGINFO,
                         ids=lambda m: m.__name__.split(".")[-2])
def test_versions_still_differ(debuginfo):
    old = debuginfo.struct_defs(debuginfo.CURRENT_VERSION)
    new = debuginfo.struct_defs(debuginfo.NEXT_VERSION)
    assert old.keys() == new.keys()
    assert [s.size for s in old.values()] != [s.size for s in new.values()]
    for version, defs in ((debuginfo.CURRENT_VERSION, old),
                          (debuginfo.NEXT_VERSION, new)):
        binary = debuginfo.build_module(version)
        assert binary.version == version
        for name, sdef in defs.items():
            layout = dwarf_extract_struct(binary, name,
                                          [f.name for f in sdef.fields])
            assert layout.byte_size == sdef.size


@pytest.mark.parametrize("debuginfo", DEBUGINFO,
                         ids=lambda m: m.__name__.split(".")[-2])
def test_shared_struct_definitions_are_read_only(debuginfo):
    defs = debuginfo.struct_defs()
    name = next(iter(defs))
    with pytest.raises(TypeError):
        defs[name] = None
    with pytest.raises(TypeError):
        del defs[name]
    with pytest.raises(AttributeError):
        debuginfo.build_module().version = "0"
    assert debuginfo.struct_defs() is defs


def test_machines_share_their_drivers_debug_info():
    params = default_params()
    params = params.with_overrides(blk=replace(params.blk, replicas=2))
    machines = [build_machine(2, OSConfig.MCKERNEL_HFI, params=params),
                build_machine(1, OSConfig.LINUX, params=params)]
    nodes = [n for m in machines for n in m.nodes]
    for attr in ("driver", "pxd"):
        drivers = [getattr(n, attr) for n in nodes]
        assert len(drivers) == 3
        assert all(d.binary is drivers[0].binary for d in drivers), attr
        assert all(d._defs is drivers[0]._defs for d in drivers), attr
    # the PicoDrivers extract from that same binary
    assert all(n.pico.module is nodes[0].driver.binary for n in nodes[:2])
    old = build_machine(1, OSConfig.LINUX)
    new = build_machine(1, OSConfig.LINUX,
                        driver_version=hfi1_debuginfo.NEXT_VERSION)
    assert old.nodes[0].driver.binary is not new.nodes[0].driver.binary
    assert new.nodes[0].driver.binary is hfi1_debuginfo.build_module(
        hfi1_debuginfo.NEXT_VERSION)
    assert MlxDriver().binary is MlxDriver(unit=1).binary


def test_a_failed_build_caches_nothing():
    calls = []

    @once_per_version
    def build(version: str = "1"):
        calls.append(version)
        if version == "bad":
            raise ValueError(version)
        return [version]

    assert build() is build("1") is build(version="1")
    for _ in range(2):
        with pytest.raises(ValueError):
            build("bad")
    assert calls == ["1", "bad", "bad"]
