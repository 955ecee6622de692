"""Smoke tests of the sweep scripts: each main() on a tiny input."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(capsys, name, *argv):
    assert load_script(name).main(list(argv)) == 0
    return capsys.readouterr().out


def test_threshold_sweep(capsys):
    out = run_script(capsys, "threshold_sweep", "--pattern", "{x, y, x+y}",
                     "--colors", "2,3", "--n-max", "20")
    lines = out.splitlines()
    assert len(lines) == 2
    assert "c=2  N*=5 " in lines[0]
    assert "c=3  N*=14 " in lines[1]


def test_random_instance_sweep(capsys):
    out = run_script(capsys, "random_instance_sweep",
                     "--pattern", "{x, y, x*y, x+y}", "--n", "60",
                     "--trials", "20")
    first, *witnesses = out.splitlines()
    assert first == ("pattern '{x, y, x*y, x+y}' on [1..60], c=2: "
                     "forced in 20/20 (100.00%)")
    assert witnesses[0] == "  least witness x=1, y=1: 15 seeds"
    assert sum(int(line.split(": ")[1].split()[0]) for line in witnesses) == 20


def test_semigroup_census(capsys):
    out = run_script(capsys, "semigroup_census", "--order", "2")
    assert out.splitlines()[0] == "order 2: 8 semigroups"


def test_semigroup_census_refuses_order_four_without_force():
    with pytest.raises(SystemExit):
        run_script(None, "semigroup_census", "--order", "4")


@pytest.mark.parametrize("name, argv, error", [
    ("threshold_sweep", ("--pattern", "{x, y, x+y}", "--n-max", "0"),
     "threshold scan needs n_max >= 1"),
    ("threshold_sweep", ("--pattern", "{x, y"),
     "expected '}' (at offset 5)"),
    ("random_instance_sweep", ("--pattern", "{x}", "--n", "5", "--colors",
                               "0"),
     "coloring requires N >= 1 and c >= 1"),
    ("semigroup_census", ("--order", "0"), "empty table"),
], ids=["n-max-0", "bad-pattern", "colors-0", "order-0"])
def test_a_bad_input_is_one_error_line(capsys, name, argv, error):
    # a RamseyError used to end the script in a traceback
    assert load_script(name).main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert err == f"{name}: error: {error}\n"
