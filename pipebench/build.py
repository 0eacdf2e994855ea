#!/usr/bin/env python3
"""Build file of the pipeline benchmark.

Compiles the repository's `src/main/scala` and `pipebench/src` with the Scala
compiler that ships in the Spark distribution, against the Spark jars, into
`.bench_build/pipebench/<source hash>/classes`. A build whose sources are
unchanged is reused. Run it alone with `python3 pipebench/build.py`.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "pipebench")
SCALA = "2.13.17"


def spark_home():
    """`$SPARK_HOME`, else the first `spark-submit` on the PATH whose
    distribution ships the Scala compiler used here."""
    dirs = os.environ.get("PATH", "").split(os.pathsep)
    candidates = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in dirs if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in candidates:
        if home and os.path.isfile(os.path.join(home, "jars", f"scala-compiler-{SCALA}.jar")):
            return home
    sys.exit(f"no Spark distribution with Scala {SCALA}: set SPARK_HOME")


SPARK_JARS = os.path.join(spark_home(), "jars")


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not main:
        sys.exit("no sources under src/main/scala: run from a checkout of the repository")
    return main + sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))


def jvm_classpath(classes):
    return classes + os.pathsep + os.path.join(SPARK_JARS, "*")


def build():
    """Compile if needed; return the classes directory."""
    srcs = sources()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    target = os.path.join(OUT, h.hexdigest()[:16])
    classes = os.path.join(target, "classes")
    if os.path.exists(os.path.join(target, "ok")):
        return classes
    if os.path.isdir(OUT):  # drop builds of other sources
        for d in os.listdir(OUT):
            if len(d) == 16 and d != os.path.basename(target):
                shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(classes)
    compiler = os.pathsep.join(os.path.join(SPARK_JARS, f"scala-{j}-{SCALA}.jar")
                               for j in ("compiler", "library", "reflect"))
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.path.join(SPARK_JARS, "*"), "-d", classes] + srcs
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.exit("compilation failed:\n" + r.stdout[-8000:])
    open(os.path.join(target, "ok"), "w").close()
    return classes


if __name__ == "__main__":
    print(build())
