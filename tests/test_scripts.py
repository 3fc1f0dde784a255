import importlib.util
from dataclasses import replace
from pathlib import Path

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
