"""Command line entry: regenerate any of the paper's tables and figures.

    python -m repro fig4          # ping-pong bandwidth (detailed DES)
    python -m repro fig5 ... fig9
    python -m repro table1
    python -m repro sloc
    python -m repro all
    python -m repro vet           # every protocol rule, statically (--rules)
    python -m repro sanitize fig4 # re-run under KSan, lockdep, static model
    python -m repro lockgraph     # static lock-class graph (--dot)
    python -m repro chaos         # fault-injection sweep (--smoke for CI)
    python -m repro chaos --flap  # PicoGuard flap campaign (failover/failback)
    python -m repro trace fig4    # causal tracing (--out/--breakdown/--smoke)
    python -m repro check pingpong --smoke   # bounded model checker
    python -m repro check --replay a.sched   # replay a counterexample
"""

from __future__ import annotations

import sys

from .experiments import (run_fig4, run_fig5a, run_fig5b, run_fig6a,
                          run_fig6b, run_fig7, run_fig8, run_fig9,
                          run_sloc, run_table1)


def _fig4() -> str:
    return run_fig4().render()


def _fig5() -> str:
    return (run_fig5a().render("Figure 5a: LAMMPS relative performance (%)")
            + "\n\n"
            + run_fig5b().render("Figure 5b: Nekbone relative performance (%)"))


def _fig6() -> str:
    return (run_fig6a().render("Figure 6a: UMT2013 relative performance (%)")
            + "\n\n"
            + run_fig6b().render("Figure 6b: HACC relative performance (%)"))


def _fig7() -> str:
    return run_fig7().render("Figure 7: QBOX relative performance (%)")


def _fig8() -> str:
    return run_fig8().render("Figure 8")


def _fig9() -> str:
    return run_fig9().render("Figure 9")


def _table1() -> str:
    return run_table1().render()


def _sloc() -> str:
    return run_sloc().render()


def _report() -> str:
    from .experiments.report import generate_report
    return generate_report()


def _contention() -> str:
    from .experiments.contention import run_contention
    return run_contention().render()


def _projection() -> str:
    from .experiments.scale_projection import run_projection
    return run_projection().render()


COMMANDS = {
    "fig4": _fig4, "fig5": _fig5, "fig6": _fig6, "fig7": _fig7,
    "fig8": _fig8, "fig9": _fig9, "table1": _table1, "sloc": _sloc,
    "contention": _contention, "projection": _projection,
    "report": _report,
}


def _dwarf_extract(argv) -> int:
    """``python -m repro dwarf <module>[:version] <struct> <field>...``

    The dwarf-extract-struct tool over the simulated module binaries
    (modules: hfi1, mlx5_ib).  Prints the generated padded header.
    """
    if len(argv) < 2:
        print("usage: python -m repro dwarf <module>[:version] "
              "<struct> <field>...")
        return 2
    from .core.extract import dwarf_extract_struct, generate_header
    module, _, version = argv[0].partition(":")
    if module == "hfi1":
        from .linux.hfi1.debuginfo import CURRENT_VERSION, build_module
    elif module == "mlx5_ib":
        from .linux.mlx.debuginfo import CURRENT_VERSION, build_module
    else:
        print(f"unknown module {module!r} (try hfi1 or mlx5_ib)")
        return 2
    binary = build_module(version or CURRENT_VERSION)
    layout = dwarf_extract_struct(binary, argv[1], list(argv[2:]))
    print(f"/* extracted from {binary.name} v{binary.version} */")
    print(generate_header(layout))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("commands:", ", ".join([*COMMANDS, "all", "dwarf", "vet",
                                      "sanitize", "lockgraph", "chaos",
                                      "trace", "check"]))
        return 0
    name = argv[0]
    if name == "dwarf":
        return _dwarf_extract(argv[1:])
    if name == "vet":
        from .analysis.vet import cmd_vet
        return cmd_vet(argv[1:])
    if name == "sanitize":
        from .analysis.cli import cmd_sanitize
        return cmd_sanitize(argv[1:], COMMANDS)
    if name == "lockgraph":
        from .analysis.cli import cmd_lockgraph
        return cmd_lockgraph(argv[1:])
    if name == "chaos":
        from .experiments.chaos import cmd_chaos
        return cmd_chaos(argv[1:])
    if name == "trace":
        from .obs.cli import cmd_trace
        return cmd_trace(argv[1:])
    if name == "check":
        from .analysis.check import cmd_check
        return cmd_check(argv[1:])
    if name == "all":
        for key, fn in COMMANDS.items():
            if key == "report":
                continue  # the report re-runs everything; request it alone
            print(f"\n{'=' * 70}\n{key}\n{'=' * 70}")
            print(fn())
        return 0
    if name not in COMMANDS:
        print(f"unknown command {name!r}; choose from "
              f"{', '.join([*COMMANDS, 'all'])}")
        return 2
    print(COMMANDS[name]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
