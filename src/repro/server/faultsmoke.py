"""``DaemonProc``: one ``repro serve`` subprocess on a known port.

The server fault matrix (``python -m tests.faults.smoke``) and the
``serve_mixed`` benchmark start, kill, drain and restart the daemon
through it; ``kill_after_batches`` passes ``--kill-after-batches``, the
seeded crash point.  The matrix itself lives under ``tests/faults/``.
This class stays here, under its old module name, because the
benchmark imports it from this path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import repro


class DaemonProc:
    """One ``repro serve`` subprocess bound to a known port."""

    def __init__(self, state_dir: str, out_dir: str, *, port: int = 0,
                 idle_timeout: float = 30.0,
                 checkpoint_interval: float = 0.05,
                 high_watermark: int | None = None,
                 low_watermark: int | None = None,
                 session_watermark: int | None = None,
                 kill_after_batches: int | None = None,
                 metrics_json: str | None = None) -> None:
        self.state_dir, self.out_dir = state_dir, out_dir
        self.port_file = os.path.join(state_dir, "port")
        try:
            os.unlink(self.port_file)
        except OSError:
            pass
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", state_dir, "--out-dir", out_dir,
            "--port", str(port), "--port-file", self.port_file,
            "--idle-timeout", str(idle_timeout),
            "--checkpoint-interval", str(checkpoint_interval),
        ]
        if high_watermark is not None:
            argv += ["--high-watermark", str(high_watermark)]
        if low_watermark is not None:
            argv += ["--low-watermark", str(low_watermark)]
        if session_watermark is not None:
            argv += ["--session-watermark", str(session_watermark)]
        if kill_after_batches is not None:
            argv += ["--kill-after-batches", str(kill_after_batches)]
        if metrics_json is not None:
            argv += ["--metrics-json", metrics_json]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            argv, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.port: int | None = None

    def start(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.port_file):
                try:
                    text = open(self.port_file).read().strip()
                    if text:
                        self.port = int(text)
                        return self.port
                except (OSError, ValueError):
                    pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited rc={self.proc.returncode} before binding"
                )
            time.sleep(0.02)
        raise RuntimeError("daemon did not report its port in time")

    def alive(self) -> bool:
        return self.proc.poll() is None

    def wait_exit(self, timeout: float = 60.0) -> int:
        return self.proc.wait(timeout=timeout)

    def terminate(self, timeout: float = 60.0) -> int:
        """Graceful drain via SIGTERM."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()
            self.proc.wait(timeout=30)
