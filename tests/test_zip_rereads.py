"""``paral._skip_unchanged_zip_rereads`` without Spark.

Each case runs in a fresh interpreter, so the wrapper it installs never
reaches this process's import machinery.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent("""
    import importlib, json, os, sys, zipfile, zipimport

    from repro.core.paral import _skip_unchanged_zip_rereads

    archive = sys.argv[1]

    def write(value):
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("zpkg/__init__.py", "")
            z.writestr("zpkg/mod.py", f"VALUE = {value!r}\\n")

    def load():
        sys.modules.pop("zpkg.mod", None)
        return importlib.import_module("zpkg.mod").VALUE

    write(1)
    sys.path.insert(0, archive)
    out = {"before": load()}
    stock = zipimport.zipimporter.invalidate_caches
    out["importers"] = sum(
        isinstance(f, zipimport.zipimporter) and f.archive == archive
        for f in sys.path_importer_cache.values())

    read = zipimport._read_directory
    reads = []

    def counting(path):
        reads.append(path)
        return read(path)

    zipimport._read_directory = counting

    def count_reads():
        reads.clear()
        importlib.invalidate_caches()
        return reads.count(archive)

    _skip_unchanged_zip_rereads()
    wrapper = zipimport.zipimporter.invalidate_caches
    _skip_unchanged_zip_rereads()
    out["installed_once"] = (
        wrapper is zipimport.zipimporter.invalidate_caches
        and wrapper is not stock)
    out["first"] = count_reads()
    out["unchanged"] = count_reads()
    write(22)
    out["rewritten"] = count_reads()
    out["after"] = load()
    os.remove(archive)
    out["removed"] = count_reads()
    print(json.dumps(out))
""")


def test_only_changed_archives_are_reread(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "zpkg.zip")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["before"] == 1
    # One importer for the archive and one for its package directory.
    assert out["importers"] == 2
    assert out["installed_once"]
    # The first call stamps the archive with one read its importers share.
    assert out["first"] == 1
    assert out["unchanged"] == 0
    # A different size: read again, once, and the new source is imported.
    assert out["rewritten"] == 1
    assert out["after"] == 22
    # A missing archive goes to the stock method, once per importer.
    assert out["removed"] == 2
