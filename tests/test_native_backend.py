"""Native backend: build cache, toolchain fallback, and end-to-end parity.

Three contract groups pinned here, complementing the per-kernel
bit-identity sweep in ``tests/test_kernels.py``:

* **Build cache** — the compiled shared object is keyed by source hash
  (plus compiler banner), lives under ``~/.cache/repro/`` or the
  ``REPRO_NATIVE_CACHE`` override, is reused byte-for-byte for
  unchanged source, and recompiles when the source changes.  Its
  failure paths hold too: a truncated object at the cache key is
  rebuilt once, a failing compiler leaves no temp file behind, and
  concurrent builders publish one object.
* **Selection** — ``auto`` resolves native → python: with the
  toolchain monkeypatched away (or failing) it silently degrades to
  the reference, while an explicit ``REPRO_KERNEL=native`` raises
  ``ImportError``.  An explicit ``set_backend`` wins over a
  ``REPRO_KERNEL`` value that cannot load, and exports the *resolved*
  name into the environment pre-fork, so ``--jobs`` workers and
  spawned subprocesses make the same deterministic choice.
* **End-to-end parity** — the table2 per-link ILM pipeline produces
  byte-identical payload rows and perf-counter deltas under
  ``REPRO_KERNEL=native`` and the python reference, at ``--jobs`` 1
  and 4, with the shared-memory fast path and with ``REPRO_SHM=0``
  (mirroring ``tests/test_shm.py::TestIlmJobsIdentity``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.kernels as kernels
from repro.experiments import table2
from repro.experiments.networks import cached_suite
from repro.experiments.parallel import make_executor
from repro.graph.shm import residual_segments
from repro.kernels import backend_name, set_backend
from repro.perf import COUNTERS

try:
    from repro.kernels import native_backend as natk

    native_missing = False
except ImportError:
    natk = None
    native_missing = True

requires_native = pytest.mark.skipif(
    native_missing, reason="no C toolchain for the native backend"
)

#: The ``src`` directory, for subprocesses that import ``repro``.
SRC_DIR = str(Path(kernels.__file__).resolve().parents[2])


@pytest.fixture(autouse=True)
def _restore_backend():
    # Restore the module object directly: teardown must not re-run the
    # import machinery while a test's toolchain monkeypatches linger.
    previous_module = kernels.kernel_backend()
    previous_env = os.environ.get("REPRO_KERNEL")
    yield
    kernels._BACKEND = previous_module
    if previous_env is None:
        os.environ.pop("REPRO_KERNEL", None)
    else:
        os.environ["REPRO_KERNEL"] = previous_env


# -- build cache ----------------------------------------------------------------


@requires_native
class TestBuildCache:
    def test_cache_dir_override_is_respected(self, tmp_path, monkeypatch):
        override = tmp_path / "native-cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(override))
        assert natk.cache_dir() == override
        so = natk.build_library()
        assert so.parent == override
        assert so.exists()

    def test_unchanged_source_reuses_the_cached_object(self, tmp_path):
        source = tmp_path / "kernels.c"
        source.write_bytes(natk._SOURCE_PATH.read_bytes())
        cache = tmp_path / "cache"
        first = natk.build_library(source, cache)
        stamp = first.stat().st_mtime_ns
        again = natk.build_library(source, cache)
        assert again == first
        assert again.stat().st_mtime_ns == stamp  # served, not rebuilt

    def test_source_change_recompiles_under_a_new_key(self, tmp_path):
        source = tmp_path / "kernels.c"
        source.write_bytes(natk._SOURCE_PATH.read_bytes())
        cache = tmp_path / "cache"
        first = natk.build_library(source, cache)
        source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        second = natk.build_library(source, cache)
        assert second != first  # stale entry can never be served
        assert first.exists() and second.exists()

    def test_loaded_library_comes_from_the_keyed_cache(self):
        path = natk.library_path()
        assert path.exists()
        assert path.name.startswith("repro_native-")

    def test_truncated_object_is_rebuilt_once_and_loads(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "builds.log"
        logging_cc = _cc_script(tmp_path, f"""
case " $* " in *" -shared "*) echo build >> {log} ;; esac
exec {natk.find_compiler()} "$@"
""")
        monkeypatch.setenv("CC", str(logging_cc))
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        so = natk.build_library()
        so.write_bytes(so.read_bytes()[:64])  # a copy cut off mid-write
        lib = natk._load()
        assert Path(lib._name) == so
        assert lib.repro_dijkstra is not None
        assert log.read_text().split() == ["build", "build"]  # one rebuild
        assert [p.name for p in cache.iterdir()] == [so.name]

    def test_concurrent_builders_publish_one_object(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        code = "from repro.kernels import native_backend as n; print(n.library_path())"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outputs
        paths = {out.strip() for out, _ in outputs}
        assert len(paths) == 1
        assert [p.name for p in cache.iterdir()] == [Path(paths.pop()).name]


def _cc_script(tmp_path: Path, body: str) -> Path:
    """An executable shell script to stand in for ``$CC``."""
    script = tmp_path / "cc.sh"
    script.write_text("#!/bin/sh\n" + body.lstrip())
    script.chmod(0o755)
    return script


def _failing_cc(tmp_path: Path) -> Path:
    """A compiler that writes part of its output, then fails."""
    return _cc_script(tmp_path, """
out=
while [ $# -gt 0 ]; do
  [ "$1" = -o ] && out=$2
  shift
done
[ -n "$out" ] && printf partial > "$out"
echo "cc: internal compiler error" >&2
exit 1
""")


# -- selection and the pre-fork export -------------------------------------------


def _forget_native(monkeypatch):
    """Force ``_resolve`` to re-import the backend module from scratch."""
    monkeypatch.delitem(
        sys.modules, "repro.kernels.native_backend", raising=False
    )
    if hasattr(kernels, "native_backend"):
        monkeypatch.delattr(kernels, "native_backend")


def _hide_toolchain(monkeypatch):
    """Make this process look like a machine without a C compiler."""
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    _forget_native(monkeypatch)


class TestToolchainFallback:
    def test_find_compiler_reports_absence(self, monkeypatch):
        if native_missing:
            pytest.skip("no C toolchain for the native backend")
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setattr(shutil, "which", lambda *a, **k: None)
        assert natk.find_compiler() is None

    def test_auto_degrades_silently_without_a_compiler(self, monkeypatch):
        _hide_toolchain(monkeypatch)
        assert kernels._resolve("auto").NAME == "python"

    def test_explicit_native_without_a_toolchain_raises(self, monkeypatch):
        _hide_toolchain(monkeypatch)
        with pytest.raises(ImportError, match="C compiler"):
            kernels._resolve("native")

    @requires_native
    def test_failing_compiler_leaves_no_temp_file_and_auto_degrades(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("CC", str(_failing_cc(tmp_path)))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        with pytest.raises(natk.NativeUnavailable, match="compilation failed"):
            natk.build_library()
        assert list(cache.iterdir()) == []  # no *.tmp.so, no object
        _forget_native(monkeypatch)
        assert kernels._resolve("auto").NAME == "python"
        with pytest.raises(ImportError, match="compilation failed"):
            kernels._resolve("native")
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("stale", ["bogus", "native"])
    def test_explicit_choice_overrides_an_env_value_that_cannot_load(
        self, stale, tmp_path, monkeypatch
    ):
        """``--kernel python`` must install even when ``REPRO_KERNEL``
        names an unknown backend or native on a broken compiler; the
        returned previous selection is the unresolved request."""
        monkeypatch.setenv("REPRO_KERNEL", stale)
        monkeypatch.setenv("CC", str(_failing_cc(tmp_path)))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        _forget_native(monkeypatch)
        monkeypatch.setattr(kernels, "_BACKEND", None)  # nothing resolved yet
        assert set_backend("python") == stale
        assert backend_name() == "python"
        assert os.environ["REPRO_KERNEL"] == "python"

    @requires_native
    def test_set_backend_exports_the_resolved_name(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        set_backend("native")
        assert backend_name() == "native"
        assert os.environ.get("REPRO_KERNEL") == "native"

    @requires_native
    def test_spawned_interpreter_inherits_the_exported_choice(self):
        set_backend("native")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.kernels import backend_name; print(backend_name())",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "native"

    @requires_native
    def test_jobs_workers_resolve_the_exported_backend(self):
        set_backend("native")
        executor = make_executor(2)
        if executor is None:
            pytest.skip("cannot fan out on this machine")
        try:
            names = list(executor.map(_worker_kernel_probe, range(2)))
        finally:
            executor.shutdown()
        assert names == [("native", "native")] * 2


def _worker_kernel_probe(_index: int) -> tuple[str, str]:
    from repro.kernels import backend_name

    return os.environ.get("REPRO_KERNEL", ""), backend_name()


# -- end-to-end table2 / per-link ILM parity --------------------------------------


@requires_native
class TestTable2NativeParity:
    """Payload rows and counters: native == python, jobs 1/4, shm on/off."""

    def _rows(self, jobs: int) -> dict:
        network = cached_suite(scale="tiny", seed=1)[0]
        executor = make_executor(jobs) if jobs > 1 else None
        try:
            return table2.evaluate_network(
                network,
                modes=("link",),
                seed=1,
                with_multiplicity=False,
                ilm_accounting="per-link",
                jobs=jobs,
                suite_ref=("tiny", 1, 0),
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.shutdown()

    def test_rows_and_counters_match_at_jobs1(self):
        set_backend("python")
        self._rows(jobs=1)  # warm shared caches: compare like-for-like
        before = COUNTERS.snapshot()
        expected = self._rows(jobs=1)
        ref_delta = COUNTERS.delta(before).as_dict()
        set_backend("native")
        before = COUNTERS.snapshot()
        got = self._rows(jobs=1)
        nat_delta = COUNTERS.delta(before).as_dict()
        assert got == expected
        assert nat_delta == ref_delta

    def test_rows_match_at_jobs4_with_shm(self):
        set_backend("python")
        expected = self._rows(jobs=4)
        set_backend("native")
        assert self._rows(jobs=4) == expected
        assert residual_segments() == []

    def test_rows_match_at_jobs4_without_shm(self, monkeypatch):
        set_backend("python")
        expected = self._rows(jobs=4)
        monkeypatch.setenv("REPRO_SHM", "0")
        set_backend("native")
        assert self._rows(jobs=4) == expected
        assert residual_segments() == []
