#!/usr/bin/env python3
"""Build (when the sources changed) and run the KSP-DG benchmark.

Run from the root of a checkout:

    python3 kspbench/run.py --workload churn-local --seed 1 --seconds 10 --trace 0

The first run compiles the repository's main sources together with the
benchmark's own through the sbt build in this directory and records the
runtime classpath under .bench_build/; later runs start the JVM directly.
The last line of standard output is the run's JSON result.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "kspbench"
WORKLOADS = ("churn-local", "churn-spark")
RUN_TIMEOUT_S = 175

# Module opens that kryo and Spark need on JDK 17, as spark-submit adds them.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"kspbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    roots = [ROOT / "src" / "main" / "scala", HERE / "src" / "main" / "scala"]
    files = [p for r in roots if r.is_dir() for p in sorted(r.rglob("*.scala"))]
    return files + [HERE / "build.sbt", HERE / "project" / "build.properties"]


def stamp():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_home():
    """SPARK_HOME, or else the first Spark installation whose bin/spark-submit
    is on the PATH (entry-point scripts of a pip-installed PySpark are skipped:
    their parent holds no jars/)."""
    if os.environ.get("SPARK_HOME"):
        homes = [pathlib.Path(os.environ["SPARK_HOME"])]
    else:
        submits = (pathlib.Path(d) / "spark-submit" for d in os.environ.get("PATH", "").split(os.pathsep) if d)
        homes = [p.resolve().parent.parent for p in submits if p.is_file()]
    for home in homes:
        if (home / "jars").is_dir():
            return str(home)
    fail("no Spark installation found: set SPARK_HOME to a directory that holds jars/")


def classpath():
    """Runtime classpath of the benchmark, compiling first if needed."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail("the repository's sources (src/main/scala/repro) are missing")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java are needed to build the benchmark")
    want = stamp()
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=840)
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")
    cp = lines[-1].strip()
    if not all(pathlib.Path(p).exists() for p in cp.split(os.pathsep)):
        sys.stderr.write(proc.stdout[-4000:])
        fail("could not read the classpath from the build")
    cp_file.write_text(cp)
    stamp_file.write_text(want)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    cp = classpath()
    work = BUILD / "work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", "-Xmx3g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}", f"-Dkspbench.work={work}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "kspbench.Main", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    out = proc.stdout.rstrip("\n")
    if proc.returncode != 0 or not out:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    print(out, flush=True)


if __name__ == "__main__":
    main()
