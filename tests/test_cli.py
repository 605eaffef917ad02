"""Tests for the ``python -m repro`` command line."""


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
