"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prepare_dicke_args(self):
        args = build_parser().parse_args(["prepare", "--dicke", "4", "2"])
        assert args.dicke == [4, 2]


class TestPrepareCommand:
    def test_dicke(self, capsys):
        assert main(["prepare", "--dicke", "4", "2"]) == 0
        out = capsys.readouterr().out
        assert "CNOTs  : 6" in out

    def test_ghz_with_draw(self, capsys):
        assert main(["prepare", "--ghz", "3", "--draw"]) == 0
        out = capsys.readouterr().out
        assert "CNOTs  : 2" in out
        assert "q0:" in out

    def test_terms(self, capsys):
        assert main(["prepare", "--terms", "00:0.6", "11:0.8"]) == 0
        out = capsys.readouterr().out
        assert "CNOTs  : 1" in out

    def test_qasm_stdout(self, capsys):
        assert main(["prepare", "--w", "3", "--qasm", "-"]) == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out

    def test_qasm_file(self, tmp_path, capsys):
        path = tmp_path / "out.qasm"
        assert main(["prepare", "--ghz", "3", "--qasm", str(path)]) == 0
        text = path.read_text()
        assert "qreg q[3];" in text
        # round-trip through the importer
        from repro.circuits.qasm import from_qasm
        from repro.sim.verify import prepares_state
        from repro.states.families import ghz_state
        assert prepares_state(from_qasm(text), ghz_state(3))

    def test_no_state_errors(self):
        with pytest.raises(SystemExit):
            main(["prepare"])

    @pytest.mark.parametrize("terms", [
        ["011:abc"], ["01x:0.5"], ["011:0.5", "10:0.5"],
    ], ids=["weight", "bits", "width"])
    def test_malformed_terms_exit_with_one_line(self, terms):
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--terms", *terms])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert repr(terms[-1]) in message  # names the bad term


class TestCompareCommand:
    def test_random_sparse(self, capsys):
        assert main(["compare", "--random-sparse", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "m-flow" in out and "ours" in out

    def test_random_dense(self, capsys):
        assert main(["compare", "--random-dense", "4"]) == 0
        assert "n-flow" in capsys.readouterr().out
