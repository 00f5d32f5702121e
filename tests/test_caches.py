"""Every cache in a seqcs module is one that the benchmark's reset empties.

Before each pass, perfbench/run.py empties every module-level dict of a seqcs
module whose name starts with `_` and contains `cache` or `evaluator`, and
every function with `cache_clear` (see "Load model" in perfbench/README.md).
A module-level container filled at run time under any other name would stay
warm across passes, so later passes would run faster than a fresh process
and fake a gain.  The check runs in a fresh interpreter (this file run as a
script), so no earlier test has filled anything before the baseline is taken.
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_containers() -> dict:
    """Every mutable module-level container of the loaded seqcs modules, by dotted name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("seqcs"):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                    found[f"{name}.{attr}"] = value
    return found


def contents(value) -> list[int]:
    """Identity of a container's entries: a new or replaced entry changes it."""
    return [id(v) for v in (value.values() if isinstance(value, dict) else value)]


def exercise(workdir: Path) -> None:
    """Every subcommand once on phi(3,3,1), the evaluator and norm paths included."""
    from seqcs.analysis import FunctionTable
    from seqcs.cli import main
    from seqcs.phi_km import phi_system, phi_witness_certificate

    system, certificate, function = (workdir / f"{name}.json" for name in ("system", "certificate", "function"))
    system.write_text(json.dumps(phi_system(3, 3, 1).to_json()))
    certificate.write_text(json.dumps(phi_witness_certificate(3, 3, 1).to_json()))
    function.write_text(json.dumps(FunctionTable.constant(3, 2).to_json()))
    commands = [
        ["analyze", str(system)],
        ["witness", str(system), "--k", "1", "--max-len", "2"],
        ["verify", str(certificate), str(system)],
        ["reduce", str(system), "--witness", str(certificate), "--numeric-check", "--trials", "2", "--n", "2"],
        ["gvn", "--system", str(system), "--at", "0", "--k", "1", "--ell", "1", "--trials", "2", "--n", "2"],
        ["phikm", "--p", "3", "--k", "3", "--M", "1", "--witness", "--verify"],
        ["cover", "--phikm-origin", "--p", "3", "--k", "3", "--M", "2"],
        ["gowers", str(function), "--k", "3", "--direct"],
    ]
    for argv in commands:
        with redirect_stdout(StringIO()):
            code = main(argv)
        assert code in (0, 1), (argv, code)


def check_reset(workdir: Path) -> None:
    """Fail unless the benchmark's reset empties every container the commands filled."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import seqcs.cli  # loads every seqcs module before the baseline
    from run import reset_program_caches

    baseline = {name: contents(value) for name, value in module_containers().items()}
    exercise(workdir)
    filled = sorted(name for name, value in module_containers().items() if contents(value) != baseline.get(name))
    # the check must see the caches the commands are known to fill
    assert "seqcs.analysis._shift_cache" in filled, filled
    assert seqcs.cli.build_parser.cache_info().currsize == 1
    reset_program_caches()
    stale = sorted(name for name, value in module_containers().items() if contents(value) != baseline.get(name))
    assert not stale, f"filled at run time but not emptied by the benchmark's reset: {stale}"
    # the CLI parser is built once per process: each benchmark pass builds it again, as a fresh process would
    assert seqcs.cli.build_parser.cache_info().currsize == 0


def test_every_module_cache_is_emptied_by_the_benchmark_reset(tmp_path):
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]


if __name__ == "__main__":
    check_reset(Path(sys.argv[1]))
