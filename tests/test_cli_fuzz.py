"""Fuzz of the command line over junk and edge-valued argv.

Whatever the arguments, a subcommand ends with an exit code in
{0, 1, 2, 3} and never with a traceback, and exit 1 (a failed gated
check) comes only from subcommands that have a gated verdict.  Sizes
stay small: k <= 6 apart from values the generation guard refuses at
once, mercer degrees <= 64, and no trend check, since those run fixed
k-ladders up to 16.  --out and --dump are drawn too: a new directory,
a nested one with missing parents, an existing file, a name under a
file; exit 2 writes no file.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rudin_shapiro.cli import EXIT_CHECK_FAILED, EXIT_USAGE, main

GATED = {"generate", "roots", "census", "verify", "saffari", "mercer"}

JUNK = st.sampled_from(["", "x", "1e3", "2.5", "nan", "-", "0x10", " "])


def _mostly(valid, junk=JUNK):
    """valid nine draws in ten, junk in the tenth."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


K = _mostly(st.integers(-1, 6).map(str), st.one_of(
    JUNK, st.sampled_from(["27", "99"])))
K_RANGE = st.one_of(K, _mostly(
    st.sampled_from(["1..6", "0..3", "-1..2", "2,4,6", "3..5", "6..6"]),
    st.sampled_from(["6..1", "..", "1..", "..3", ",", "4..x", "3,,5",
                     "1..2..3"])))
COUNT = _mostly(st.integers(-1, 4100).map(str))
SMALL = _mostly(st.integers(-1, 4).map(str))
REAL = _mostly(st.sampled_from(["0", "-1", "1e-10", "1e-300", "0.01", "3",
                                "1e308"]),
               st.sampled_from(["inf", "-inf", "nan", "x", ""]))
ANGLE = _mostly(st.sampled_from(["0", "pi", "2pi", "-pi", "pi/3", "3pi/4",
                                 "0.3", "7", "-0", "1e-300", "2pi/1e3"]),
                st.sampled_from(["pi/0", "1/0", "0/0", "1e400", "nan", "inf",
                                 "x", "", "pi/", "/2"]))
ARC = _mostly(st.tuples(ANGLE, ANGLE).map(":".join),
              st.sampled_from(["0", ":", "0:1:2", "pi/4:"]))
Q_LIST = _mostly(st.sampled_from(["2", "0.25,1,2,4", "1,6", "1e-300", "50",
                                  "1e300"]),
                 st.sampled_from(["0", "-1", "inf", "nan", "1,,2", "", "x"]))
WHICH = _mostly(st.sampled_from(["p", "q", "both"]), st.just("x"))
CHECK = _mostly(st.sampled_from(["lattice_pair", "intervals", "bernstein",
                                 "level_set", "moment_bounds", "saffari",
                                 "subarc_mahler"]), st.just("bogus"))
# paths relative to a fresh directory holding the file taken.bin and the
# directory taken_dir; --dump names a file under --out
GOOD_OUT = ["", "new", "new/nested/out"]
BAD_OUT = ["taken.bin", "taken.bin/sub"]
OUT = _mostly(st.sampled_from(GOOD_OUT), st.sampled_from(BAD_OUT))
DUMP = st.sampled_from(["grid.bin", "taken.bin", "sub/grid.bin",
                        "../grid.bin", "taken_dir", "..", ".", ""])
COEFFS = _mostly(st.sampled_from(["1,1,-1", "1,1,1,-1", "1,-1,1", "1,0,1",
                                  "3,1,-3", "1", "1,1,1,1,-1"]),
                 st.sampled_from(["1,", ",", "x", ""]))


def _flags(flags, optional):
    """Argv words of some or (optional=False) all of the flags, shuffled."""
    names = st.lists(st.sampled_from(sorted(flags)), unique=True) \
        if optional else st.permutations(sorted(flags))
    return names.flatmap(lambda chosen: st.tuples(*[
        st.just([name]) if flags[name] is None
        else flags[name].map(lambda value, name=name: [name, value])
        for name in chosen]))


COMMON = {"--seed": _mostly(st.integers(-1, 5).map(str)),
          "--threads": SMALL}

# subcommand: (positional arguments, required flags, optional flags)
SUBCOMMANDS = {
    "generate": ([], {"--k": K}, {}),
    "eval": ([], {"--k": K}, {"--theta": ANGLE, "--arc": ARC,
                              "--count": COUNT, "--no-offset": None,
                              "--dump": DUMP}),
    "norm": ([], {"--k": K_RANGE, "--q": Q_LIST},
             {"--arc": ARC, "--count": COUNT, "--which": WHICH}),
    "mahler": ([], {"--k": K_RANGE}, {"--arc": ARC, "--count": COUNT,
                                      "--which": WHICH}),
    "roots": ([], {"--k": K}, {"--which": WHICH, "--tol": REAL,
                               "--max-iter": SMALL}),
    "census": ([], {"--k": K_RANGE}, {"--which": WHICH, "--eps": REAL,
                                      "--tol": REAL}),
    "verify": ([CHECK], {}, {"--k": K_RANGE, "--arcs": SMALL,
                             "--q": Q_LIST}),
    "distribution": ([], {"--k": K}, {
        "--bins": _mostly(st.sampled_from(["2", "8", "64", "4096"]),
                          st.sampled_from(["1", "0", "4097", "1e11", "x"])),
        "--count": COUNT, "--which": WHICH}),
    "saffari": ([], {"--k": K_RANGE}, {"--q": Q_LIST, "--count": COUNT}),
    "mercer": ([], {}, {"--random": _mostly(st.integers(-1, 12).map(str)),
                        "--degree": _mostly(st.integers(-1, 64).map(str)),
                        "--falsify": SMALL, "--coeffs": COEFFS}),
    "problem55": ([], {"--k": K_RANGE}, {"--count": COUNT}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positional, required, optional = SUBCOMMANDS[command]
    argv = [command] + [draw(strategy) for strategy in positional]
    for words in draw(_flags(required, False)) + \
            draw(_flags({**optional, **COMMON}, True)):
        argv += words
    return argv


def _exits_cleanly(argv, out):
    """Run argv with --out under a fresh directory; check the exit contract."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        root = Path(root)
        (root / "taken.bin").write_bytes(b"")
        (root / "taken_dir").mkdir()
        before = {path for path in root.rglob("*") if path.is_file()}
        status = main(argv + ["--out", str(root / out)])
        written = {path for path in root.rglob("*") if path.is_file()} - before
    argv = argv + ["--out", out]
    assert status in (0, 1, 2, 3), (argv, status)
    assert "Traceback" not in err.getvalue(), argv
    assert status != EXIT_CHECK_FAILED or argv[0] in GATED, argv
    assert status != EXIT_USAGE or not written, (argv, written)


@settings(max_examples=150)
@given(argv=argvs(), out=OUT)
def test_cli_exits_cleanly(argv, out):
    _exits_cleanly(argv, out)


@settings(max_examples=30)
@given(command=st.sampled_from(["generate", "eval"]), dump=DUMP,
       out=st.sampled_from(GOOD_OUT + BAD_OUT))
def test_artifact_paths_exit_cleanly(command, dump, out):
    # few argvs of the fuzz above reach an eval grid with --dump
    argv = [command, "--k", "3"]
    _exits_cleanly(argv + ["--dump", dump] if command == "eval" else argv, out)
