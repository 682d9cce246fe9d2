"""run() parses with one parser built on the first call; no run's options
may reach the next."""

import json

from twisted_rings.cli import EXIT_OK, run


def test_options_of_one_run_do_not_reach_the_next(capsys):
    argv = ["tower", "scan", "--samples", "1"]
    assert run(["--json"] + argv) == EXIT_OK
    first = capsys.readouterr().out
    seeded_argv = ["--json", "--seed", "5", "--cap-group-order", "16"] + argv + ["--n", "1"]
    assert run(seeded_argv) == EXIT_OK
    seeded = json.loads(capsys.readouterr().out)
    assert seeded["seed"] == 5 and seeded["inputs"]["n"] == 1
    assert run(["--json"] + argv) == EXIT_OK
    assert capsys.readouterr().out == first
