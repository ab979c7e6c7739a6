"""A ``repro serve --socket`` child process and JSONL connections to it.

Used by ``run.py`` to time service set-up (spawn until the first ping
reply) and by the ``serve-mixed`` workload for its closed-loop clients.
The socket path is relative (to the checkout root for the server, to the
client's working directory for a client), because an AF_UNIX path may not
exceed 107 bytes wherever the checkout lives.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from common import HERE, ROOT, SRC

#: parent of the per-run working directories (socket, cache, server log)
WORK_DIR = HERE / ".work"


def make_work_dir(tag: str) -> Path:
    path = WORK_DIR / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def repro_env() -> Dict[str, str]:
    """The environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Connection:
    """One blocking JSONL connection: a line out, a line back.

    Not ``repro.serve.wire.ServiceClient``: that client reconnects and
    resends when the server drops a connection, which would hide the
    failure from the benchmark, and it does not expose the raw line round
    trip that ``serve-mixed`` times apart from encoding and decoding.
    """

    def __init__(self, path: str, timeout: float) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._wfile = self._sock.makefile("w", encoding="utf-8")

    def roundtrip(self, line: str) -> str:
        self._wfile.write(line + "\n")
        self._wfile.flush()
        reply = self._rfile.readline()
        if not reply:
            raise ConnectionError("server closed the connection mid-request")
        return reply

    def request(self, doc: Dict[str, object]) -> Dict[str, object]:
        return json.loads(self.roundtrip(json.dumps(doc)))

    def close(self) -> None:
        for stream in (self._rfile, self._wfile):
            stream.close()
        self._sock.close()


class ServeProcess:
    """``python -m repro serve --socket S --jobs 2 --cache-dir D
    --cache-entries 256`` with its files in ``work``; with ``probe_file``,
    started through ``setup_probe.py``, which first runs the host-speed
    probe in the server process and writes its time there.

    The cache is bounded because the shared store rewrites its whole
    recency index on every get and put: unbounded, throughput falls as the
    cache grows (to a quarter after 200 s), and no two runs would measure
    the same service.  At 256 entries per namespace it stays level.
    """

    jobs = 2
    cache_entries = 256

    def __init__(self, work: Path, probe_file: Optional[Path] = None) -> None:
        self.work = work
        self.socket_path = os.path.relpath(work / "s.sock", ROOT)
        self._log = open(work / "serve.log", "w", encoding="utf-8")
        launch = ["-m", "repro"]
        if probe_file is not None:
            launch = [str(HERE / "setup_probe.py"), "serve", str(probe_file)]
        self.proc = subprocess.Popen(
            [
                sys.executable, *launch, "serve",
                "--socket", self.socket_path,
                "--jobs", str(self.jobs),
                "--cache-dir", os.path.relpath(work / "cache", ROOT),
                "--cache-entries", str(self.cache_entries),
            ],
            cwd=ROOT,
            env=repro_env(),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def connect(self, timeout: float = 60.0) -> Connection:
        """Connect once the server listens (polling every millisecond)."""
        path = os.path.relpath(ROOT / self.socket_path)  # from this process's cwd
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with code {self.proc.returncode}: "
                    f"{self.log_text()}"
                )
            try:
                return Connection(path, timeout)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise TimeoutError("repro serve never started listening")
                time.sleep(0.001)

    def log_text(self) -> str:
        self._log.flush()
        return (self.work / "serve.log").read_text(encoding="utf-8")[-2000:]

    def stop(self, conn: Optional[Connection], timeout: float = 30.0) -> None:
        """Ask for a drained shutdown over ``conn`` (or interrupt the server
        when there is none), then wait; kill if it does not exit."""
        try:
            if conn is not None:
                conn.request({"kind": "shutdown"})
                conn.close()
            elif self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._log.close()

    @property
    def socket_left_behind(self) -> bool:
        return os.path.exists(ROOT / self.socket_path)


def serve_setup_seconds() -> Tuple[float, float]:
    """Wall seconds from spawning ``repro serve`` to its first ping reply,
    less the host-speed probe the server process ran first, and the
    probe's time."""
    work = make_work_dir("setup")
    try:
        started = time.perf_counter()
        server = ServeProcess(work, work / "probe")
        conn = None
        try:
            conn = server.connect()
            reply = conn.request({"id": 1, "kind": "ping"})
            elapsed = time.perf_counter() - started
            if not reply.get("ok"):
                raise RuntimeError(f"ping failed: {reply}")
        finally:
            server.stop(conn)
        probe = float((work / "probe").read_text(encoding="utf-8"))
        return elapsed - probe, probe
    finally:
        remove_work_dir(work)
