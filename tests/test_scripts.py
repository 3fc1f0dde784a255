import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from anharm2d.cli import EXIT_OK, EXIT_VERIFY_FAILED

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunVerification:
    def test_all_configurations_pass_exits_0(self, capsys):
        assert load_script("run_verification").main(["--grid-n", "256"]) == EXIT_OK
        assert " NO" not in capsys.readouterr().out

    def test_a_failed_configuration_exits_5(self, monkeypatch, capsys):
        # one configuration's report fails; the table shows NO and the
        # exit code says so, as anharm2d verify's does
        script = load_script("run_verification")
        real = script.verify
        monkeypatch.setattr(
            script, "verify", lambda a, m, n: replace(real(a, m, n), passed=(a, m) != (4.0, 1))
        )
        assert script.main(["--grid-n", "256"]) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().out.count(" NO") == 1


class TestEmitWavefunctionCurves:
    def test_writes_both_curves(self, tmp_path, capsys):
        load_script("emit_wavefunction_curves").main(["--samples", "50", "--prefix", str(tmp_path / "c")])
        for state in ("ground", "excited"):
            lines = (tmp_path / f"c_{state}.csv").read_text().splitlines()
            assert lines[0] == "r,R"
            assert len(lines) == 51
        assert capsys.readouterr().out.count("wrote ") == 2


class TestBench:
    @pytest.mark.parametrize("failing", [None, ("fine", 1, "parent"), ("sweep", 2, "change")])
    def test_pairs_with_failed_operations_are_left_out(self, monkeypatch, tmp_path, failing):
        # a run that exits 0 but reports failed operations leaves its pair
        # out of every metric's comparison, is counted, and fails the script
        monkeypatch.syspath_prepend(str(SCRIPTS))
        bench = load_script("bench")
        monkeypatch.setattr(bench, "unpack", lambda rev, dest: None)
        monkeypatch.setattr(bench, "perfbench_files", lambda tree: {})

        def run(tree, workload, seed, seconds, trace):
            side = "change" if tree == bench.ROOT else "parent"
            failed = int((workload, seed - bench.PAIR_SEED, side) == failing and not trace)
            value = 2.0 if side == "parent" else 1.0
            return {"exit": 0, "correct": not failed, "attempted": 4, "failed": failed, "report": [],
                    "metrics": {name: {"value": value} for name in ("setup_s", "command_s", "points_per_s")}}

        monkeypatch.setattr(bench, "run", run)
        code = bench.main(["--pairs", "3", "--seconds", "1", "--label", "t", "--out-dir", str(tmp_path)])
        record = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert code == (0 if failing is None else 1)
        for workload, entry in record["workloads"].items():
            left_out = int(failing is not None and workload == failing[0])
            assert entry["pairs_with_failed_operations"] == left_out
            for metric in entry["metrics"].values():
                assert metric["pairs"] == 3 - left_out
                assert len(metric["change"]["values"]) == 3 - left_out
