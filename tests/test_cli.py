"""Tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import COMMANDS, main


def test_help(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "table1" in out


def test_unknown_command(capsys):
    assert main(["figx"]) == 2
    assert "unknown command" in capsys.readouterr().out


def test_all_commands_registered():
    assert set(COMMANDS) == {"fig4", "fig5", "fig6", "fig7", "fig8",
                             "fig9", "table1", "sloc", "contention",
                             "projection", "report"}


def test_sloc_command(capsys):
    assert main(["sloc"]) == 0
    assert "Porting effort" in capsys.readouterr().out


def test_fig8_command(capsys):
    assert main(["fig8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out and "writev()" in out


def test_dwarf_command_listing1(capsys):
    assert main(["dwarf", "hfi1", "sdma_state", "current_state",
                 "go_s99_running", "previous_state"]) == 0
    out = capsys.readouterr().out
    assert "char whole_struct[64];" in out
    assert "char padding1[48];" in out


def test_dwarf_command_versioned_module(capsys):
    assert main(["dwarf", "mlx5_ib:4.4-2.0.7", "mlx5_ib_mr", "lkey"]) == 0
    out = capsys.readouterr().out
    assert "mlx5_ib v4.4-2.0.7" in out


def test_dwarf_command_errors(capsys):
    assert main(["dwarf"]) == 2
    assert main(["dwarf", "nvme0", "foo", "bar"]) == 2
    out = capsys.readouterr().out
    assert "unknown module" in out


@pytest.mark.parametrize("argv, message", [
    (["hfi1", "nosuch", "foo"], "struct 'nosuch' not found"),
    (["hfi1", "sdma_state", "nosuch"], "has no member 'nosuch'"),
    (["hfi1:9.9", "sdma_state"], "unknown hfi1 driver version '9.9'"),
    (["mlx5_ib:0.1", "mlx5_ib_mr"], "unknown mlx5 driver version '0.1'"),
], ids=["struct", "member", "hfi1-version", "mlx5-version"])
def test_dwarf_command_bad_input_prints_one_line(capsys, argv, message):
    assert main(["dwarf", *argv]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and message in out
