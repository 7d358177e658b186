"""Builds the benchmark: the program's main sources plus the harness in
perfbench/scala, compiled with the Scala compiler that ships in Spark's jars.

Usage: python3 perfbench/build.py   (from the repository root)

Classes go to $CARGO_TARGET_DIR/perfbench/classes (default .bench_build/).
A build is skipped when a stamp of every source file matches the last one.
"""
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAM_DIRS = ("src/main/scala", "jobs")


def spark_jars(root):
    """$SPARK_HOME/jars, else the jar directory build.sbt compiles against."""
    if "SPARK_HOME" in os.environ:
        jars = Path(os.environ["SPARK_HOME"]) / "jars"
    else:
        sbt = root / "build.sbt"
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', sbt.read_text()) if sbt.is_file() else None
        if not m:
            raise SystemExit("build: set SPARK_HOME; build.sbt names no Spark jar directory")
        jars = Path(m.group(1))
    if not any(jars.glob("scala-compiler-*.jar")):
        raise SystemExit(f"build: no Scala compiler among the Spark jars in {jars}")
    return jars


def out_dir(root):
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else root / base) / "perfbench"


def sources(root):
    missing = [d for d in PROGRAM_DIRS if not (root / d).is_dir()]
    if missing:
        raise SystemExit(f"build: program sources missing: {', '.join(missing)} (run from the repository root)")
    files = [p for d in PROGRAM_DIRS for p in sorted((root / d).rglob("*.scala"))]
    return files + sorted((HERE / "scala").glob("*.scala"))


def digest(files, root):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(root):
    """Compiles if needed; returns (classes dir, source digest, compiled now)."""
    root = Path(root).resolve()
    files = sources(root)
    jars = spark_jars(root)
    stamp = digest(files, root)
    out = out_dir(root)
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes, stamp, False
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-classpath", str(tmp), "-nowarn", "-d", str(tmp)] + [str(p) for p in files]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        raise SystemExit(f"build: scalac failed with code {res.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    return classes, stamp, True


if __name__ == "__main__":
    print(build(Path.cwd())[0])
