"""The ingest daemon in-process: a :class:`CypressTraceServer` on a
background thread with its own event loop, for tests that talk to it
over a real socket without a subprocess."""

from __future__ import annotations

import asyncio
import threading

from repro.server.daemon import CypressTraceServer, ServerConfig


class ServerThread:
    """Run a :class:`CypressTraceServer` on its own thread + loop."""

    def __init__(self, config: ServerConfig, *, recover: bool = True) -> None:
        self.server = CypressTraceServer(config)
        if recover:
            self.server.recover()
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.serve(on_started=lambda _srv: self._ready.set())

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start")
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30) -> None:
        """Graceful drain (checkpoints + finalize), then join."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_drain)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not drain in time")

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
