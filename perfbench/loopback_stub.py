"""Loopback stand-in for the external completion and judge endpoints.

Serves the two HTTP shapes ecsynth's network clients speak, on 127.0.0.1
only:

  POST /inject  {"prompt": ...} -> {"text": ...}   (grammar.HttpInjector)
  POST /judge   {"prompt": ...} -> {"text": "yes"|"no"}  (evaluate.ExternalJudge)
  GET  /stats   -> {"inject": n, "judge": n, "errors": n}

Injection prompts are answered by the same MockInjector the mock path builds
for the stage (same failure rate, same derived seed), and judge prompts by
NormalizedJudge, so a run through this stub must produce the artifacts of the
in-process mock path. The stub counts the requests it receives by kind,
because those counts are what changes to the clients are judged against.

It serves with exactly --threads threads (the main thread is one of them),
each accepting and answering one connection at a time.

Usage: python3 perfbench/loopback_stub.py --seed N --failure-rate F --threads T
It prints the bound port on its first line of stdout and runs until SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler

from ecsynth.evaluate import NormalizedJudge
from ecsynth.grammar import InjectionError, MockInjector, SkipExample
from ecsynth.util import derive_seed

# eval.judge_prompt for the loopback workload; the stub parses it back
JUDGE_PROMPT = (
    "Is the candidate an acceptable correction of the target? Answer yes or no.\n"
    "<candidate>{candidate}</candidate>\n<target>{target}</target>"
)
_JUDGE_RE = re.compile(r"<candidate>(.*)</candidate>\n<target>(.*)</target>\Z", re.DOTALL)


class LoopbackService:
    """Answers prompts and counts requests; shared by every serving thread."""

    def __init__(self, seed: int, failure_rate: float):
        self.injector = MockInjector(
            failure_rate=failure_rate, seed=derive_seed(seed, "inject-grammar")
        )
        self.judge = NormalizedJudge()
        self.counts = {"inject": 0, "judge": 0, "errors": 0}
        self._lock = threading.Lock()

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def answer(self, kind: str, prompt: str) -> str:
        if kind == "inject":
            return self.injector.complete(prompt)
        m = _JUDGE_RE.search(prompt)
        if m is None:
            raise ValueError("judge prompt does not carry candidate and target")
        return "yes" if self.judge.judge(m.group(1), m.group(2)) else "no"

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)


class _Handler(BaseHTTPRequestHandler):
    service: LoopbackService  # set on the subclass built by serve()

    def _reply(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self) -> None:
        kind = self.path.strip("/")
        if kind not in ("inject", "judge"):
            self._reply(404, {"error": "not found"})
            return
        self.service.count(kind)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            prompt = json.loads(self.rfile.read(length).decode("utf-8"))["prompt"]
            text = self.service.answer(kind, prompt)
        except (KeyError, TypeError, ValueError, InjectionError, SkipExample) as e:
            self.service.count("errors")
            self._reply(422, {"error": str(e)})
            return
        self._reply(200, {"text": text})

    def log_message(self, format: str, *args: object) -> None:
        pass  # one line per request would dominate the run's output


def serve(sock: socket.socket, service: LoopbackService, threads: int) -> None:
    """Accept and answer connections on `threads` threads, this one included."""
    handler = type("Handler", (_Handler,), {"service": service})

    def loop() -> None:
        while True:
            conn, addr = sock.accept()
            try:
                handler(conn, addr, None)
            except OSError:
                pass  # client went away mid-request; keep serving
            finally:
                conn.close()

    for _ in range(threads - 1):
        threading.Thread(target=loop, daemon=True).start()
    loop()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--failure-rate", type=float, required=True)
    ap.add_argument("--threads", type=int, required=True)
    args = ap.parse_args(argv)
    if args.threads < 1:
        ap.error("--threads must be positive")

    def stop(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    service = LoopbackService(args.seed, args.failure_rate)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        print(sock.getsockname()[1], flush=True)
        serve(sock, service, args.threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
