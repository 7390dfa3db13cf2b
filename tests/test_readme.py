"""The README's own examples: its INI block loads to the documented
defaults, and its library example runs."""

import re
from pathlib import Path

from dgareduce.cli import _config_from_ini
from dgareduce.pipeline import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language: str) -> str:
    """The README's one fenced code block of `language`."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def test_ini_example_loads_to_the_defaults(tmp_path):
    ini = tmp_path / "experiment.ini"
    ini.write_text(_block("ini"))
    assert _config_from_ini(ini) == ExperimentConfig(seed=42)


def test_library_example_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    kept, result = capsys.readouterr().out.splitlines()
    assert kept.startswith("(") and result.split()[0] in ("goal", "early-stop", "epochs")
