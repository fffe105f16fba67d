"""Property test of the CLI's exit-code contract, driven by the option table.

Each subcommand, and each mode of `diagnostics` and `metrics`, starts from
a small valid command line (tiny k and n, one worker). Hypothesis replaces
some of its options with values drawn from the option's row in
`cli.OPTIONS`: integers around the row's lowest value, floats, text that is
not a number, names of files of every kind and of a directory, and `@`
arguments. Each value goes either in the flag's argument (`--k=5`) or in an
argument of its own (`--k 5`), where one that begins with `@` is read as a
file. Half the command lines move a run of their arguments into an args
file, passed as `@args`. One draw in ten also gives an option that only
another mode reads, which must exit 2. Whatever the input, `main()` must
exit 0, 2 or 3, emit no warning, print exactly one JSON object on stderr
when it fails, and print strict JSON from `metrics`.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bezier_mopt import cli
from bezier_mopt.bezier import BezierSimplex, save_model
from bezier_mopt.simplex import enumerate_multi_indices

# Valid command lines, by option dest; the key names the subcommand and the
# mode, the scope of `cli.OPTIONS` whose rows the command line reads.
BASE = {
    "solve": {"problem": "scaled-med", "num_samples": "12", "iterations": "3",
              "out": "model-out.json"},
    "experiment": {"problem": "scaled-med", "num_samples": "12", "iterations": "3",
                   "trials": "1", "threads": "1", "mse_samples": "20",
                   "validation_count": "3", "out_dir": "exp"},
    "baseline": {"problem": "scaled-med", "population": "12", "mse_samples": "20",
                 "validation_count": "3", "out_dir": "base"},
    "sample": {"model": "model.json", "n": "3", "out": "s.csv"},
    "metrics gd": {"metric": "gd", "x_file": "x.csv", "y_file": "y.csv"},
    "metrics mse": {"metric": "mse", "model": "model.json", "problem": "scaled-med",
                    "count": "20"},
    "diagnostics perturb": {"mode": "perturb", "num_samples": "12", "iterations": "3",
                            "repeats": "1", "out_dir": "diag"},
    "diagnostics gengap": {"mode": "gengap", "num_samples": "12", "iterations": "3",
                           "holdout": "20", "trials": "1", "out_dir": "diag"},
}
# Files written into each example's working directory.
FILES = {
    "bad.json": "{}",
    "list.json": "[1, 2]",
    "broken.json": "{",
    "x.csv": "x_1,x_2,x_3\n0.1,0.2,0.3\n1,0,0\n",
    "y.csv": "# comment\na,b,c\n0,0,0\n",
    "nan.csv": "x_1,x_2,x_3\nnan,0,0\n",
    "huge.csv": "x_1,x_2,x_3\n1e308,-1e308,1e308\n",
    "short.csv": "x_1,x_2\n1\n",
}
MODELS = ["model.json", "d2.json", "huge.json", "m2.json", "bad.json", "list.json",
          "broken.json", "x.csv", "missing.json"]
OUTPUTS = ["o", "sub/x", "x.csv", "adir", ""]
# Values worth trying for the text options, beside junk text.
TEXT_VALUES = {
    "problem": ["scaled-med", "skew-3med", "skew-3mmd", "skew-med:1", "skew-mmd:x", "nope"],
    "schedule": ["1/k", "const:0.5", "const:2", "const:nan", "const:", "bogus"],
    "metrics": ["mse", "gd,igd", "diagnostics", "mse,hv", ","],
    "mode": ["perturb", "gengap", "bogus"],
    "metric": ["gd", "igd", "mse", "hv"],
    "initial_model": ["zero", *MODELS],
    "model": MODELS,
    "compare_with": MODELS,
    "x_file": ["huge.csv", "nan.csv", "x.csv", "short.csv", "model.json", "bytes.bin",
               "adir", "missing"],
    "y_file": ["huge.csv", "nan.csv", "x.csv", "short.csv", "bytes.bin", "adir", "missing"],
    "out": OUTPUTS, "trace": OUTPUTS, "out_dir": OUTPUTS,
}
# Arguments argparse reads as files: the args file itself, files that hold
# no arguments, bytes that are not text, and no file at all.
AT_VALUES = ["@args", "@x.csv", "@model.json", "@bytes.bin", "@missing", "@"]
JUNK = st.text(alphabet="ab1-.,:e@ \0", max_size=6).filter(lambda text: ".." not in text)


def small_ints(dest, lowest):
    # Sizes stay tiny; a pool must not start, so --threads never exceeds 1.
    low = -2 if lowest is None else lowest - 2
    return st.integers(low, low + 2 if dest == "threads" else low + 6)


def flag_texts(row):
    _, dest, kind, _, lowest, _, _ = row
    options = []
    if kind in (int, float):
        options.append(small_ints(dest, lowest).map(str))
    if kind is float:
        options.append(st.sampled_from(["nan", "inf", "-inf", "1e-300", "0.5", "1e300"]))
    if dest == "seed":
        options.append(st.just(str(2**128)))
    if dest == "num_samples":
        options.append(st.lists(st.integers(-1, 14), max_size=2).map(
            lambda counts: ",".join(map(str, counts))))
    if dest in TEXT_VALUES:
        options.append(st.sampled_from(TEXT_VALUES[dest]))
    return st.one_of(*options, JUNK, st.sampled_from(AT_VALUES))


@st.composite
def command_lines(draw, base):
    """(argv, the lines of the args file or None, whether an option of
    another mode was given)."""
    command = base.split()[0]
    scope = {command, base}
    rows = [row for row in cli.OPTIONS if scope & set(row[5])]
    foreign = [row for row in cli.OPTIONS if not scope & set(row[5])
               and any(name.split()[0] == command for name in row[5])]
    flags = dict(BASE[base])
    changed = st.lists(st.sampled_from(rows), min_size=1, max_size=3, unique_by=lambda r: r[1])
    # One draw in ten adds an option of another mode.
    extra = bool(foreign) and draw(st.sampled_from(range(10))) == 9
    for row in draw(changed) + ([draw(st.sampled_from(foreign))] if extra else []):
        flags[row[1]] = draw(flag_texts(row))
    flag_of = {dest: flag for flag, dest, *_ in rows + foreign}
    argv = [command]
    for dest, value in flags.items():
        argv += [flag_of[dest], value] if draw(st.booleans()) else [f"{flag_of[dest]}={value}"]
    if not draw(st.booleans()):
        return argv, None, extra
    start = draw(st.integers(0, len(argv) - 1))
    stop = draw(st.integers(start + 1, len(argv)))
    return argv[:start] + ["@args"] + argv[stop:], argv[start:stop], extra


def write_fixtures(directory):
    basis = enumerate_multi_indices(3, 3)
    save_model(BezierSimplex(basis=basis, control_points=np.full((10, 3), 0.25)),
               os.path.join(directory, "model.json"))
    save_model(BezierSimplex(basis=basis, control_points=np.full((10, 3), 1e200)),
               os.path.join(directory, "huge.json"))
    for name, (objectives, degree) in {"d2.json": (3, 2), "m2.json": (2, 3)}.items():
        small = enumerate_multi_indices(objectives, degree)
        save_model(BezierSimplex(basis=small, control_points=np.zeros((small.size, 3))),
                   os.path.join(directory, name))
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(directory, "bytes.bin"), "wb") as fh:
        fh.write(b"\xff\xfe--k\n")
    os.mkdir(os.path.join(directory, "adir"))


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_in(directory, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                code = exit.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("base", sorted(BASE))
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_input_keeps_the_exit_code_contract(base, data):
    argv, lines, foreign = data.draw(command_lines(base))
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        if lines is not None:
            with open(os.path.join(directory, "args"), "w") as fh:
                fh.write("".join(line + "\n" for line in lines))
        code, out, err, caught = run_in(directory, argv)
    assert code in ((2,) if foreign else (0, 2, 3)), (argv, lines, err)
    assert not caught, (argv, lines, [str(w.message) for w in caught])
    if code == 0:
        assert err == ""
        if argv[0] == "metrics":
            json.loads(out, parse_constant=reject_constant)
    else:
        assert out == ""
        assert set(json.loads(err)) == {"error"}, (argv, lines, err)
        assert err.count("\n") == 1
