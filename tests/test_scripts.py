import importlib.util
import json
from pathlib import Path

from dlschubert.dlclass import DLQuery, dl_class

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dl_tables = _load("dl_tables")


def test_dl_tables_takes_n_from_w(capsys):
    assert dl_tables.main(["--w", "[2,1,4,3]"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# theory=CH n=4 q=2 classes=1\n")
    assert out.splitlines()[1].startswith("w = [2,1,4,3] ")


def test_dl_tables_embeds_a_shorter_w(capsys):
    # as `dlschubert dlclass` does: [2,1] at n = 3 is [2,1,3]
    assert dl_tables.main(["--w", "[2,1]", "--n", "3", "--json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == dl_class(DLQuery((2, 1, 3), 3, 2, "CH")).to_json()


def test_dl_tables_reports_a_bad_query_in_one_line(capsys):
    for argv in (["--q", "1"], ["--w", "[2,1,3]", "--n", "2"]):
        assert dl_tables.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
