"""Start-up guard: the CLI and the service import without scipy.

scipy is the ``repro[fig7]`` extra, needed only to rotate images.  Each
command runs in a fresh process, so an eager scipy import anywhere on the
package's import path costs every command its load time and memory.  The
child process below blocks scipy (``sys.modules["scipy"] = None`` makes
any ``import scipy`` raise) and checks what still works.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

CHILD = textwrap.dedent(
    """
    import os
    import pathlib
    import sys

    sys.modules["scipy"] = None

    import numpy as np

    import repro.eval.cli
    import repro.serve
    from repro.data import add_uniform_noise, rotate_images

    assert sys.modules["scipy"] is None  # no module loaded a real scipy

    x = np.arange(2 * 1 * 5 * 5, dtype=float).reshape(2, 1, 5, 5)
    assert np.array_equal(rotate_images(x, 0.0), x)
    noisy = add_uniform_noise(x, 0.5, rng=np.random.default_rng(0))
    assert noisy.shape == x.shape and np.abs(noisy - x).max() <= 0.5

    try:
        rotate_images(x, 7.0)
    except ImportError as exc:
        assert "repro[fig7]" in str(exc), str(exc)
    else:
        raise AssertionError("rotate_images(x, 7.0) ran without scipy")

    # fig7 --shift rotation stops before it builds or trains anything.
    cache = pathlib.Path(os.environ["REPRO_CACHE_DIR"])
    try:
        repro.eval.cli.main(["--preset", "tiny", "fig7", "--shift", "rotation"])
    except SystemExit as exc:
        message = exc.code
    else:
        raise AssertionError("fig7 --shift rotation ran without scipy")
    assert isinstance(message, str), message  # printed to stderr, exit 1
    assert "repro[fig7]" in message and "\\n" not in message, message
    written = sorted(p.name for p in cache.rglob("*")) if cache.exists() else []
    assert not written, written
    print("ok")
    """
)


def test_cli_and_service_import_without_scipy(tmp_path):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
