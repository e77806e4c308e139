#!/usr/bin/env python3
"""Ten-second end-to-end smoke for the wm_serve daemon (CI step).

Starts the daemon on an ephemeral port, sends one request per endpoint
plus a malformed line, checks the replies, scrapes the metrics endpoint
(grammar + exact request-count reconciliation), probes it as a hostile
client would, then SIGTERMs and verifies the drain exits cleanly within
the deadline. The hostile probes:

  - a 200 KB line of nested negations and a 66,000-conjunct chain each
    answer bad_formula, and the connection then answers stats;
  - an explicit Kripke model of 2,048 states and all 4,225 (in, out)
    port pairs answers bad_request, and the daemon's peak RSS (VmHWM)
    stays under 128 MiB;
  - 600 sequential connections leave the daemon's VmSize within 64 MiB
    between connection 300 and connection 600;
  - with MAX_CONNECTIONS open, one more gets a single busy line and EOF.

usage: serve_smoke.py path/to/wm_serve
"""
import json
import re
import signal
import socket
import subprocess
import sys
import time

DEADLINE = 10.0
MAX_CONNECTIONS = 64  # serve::Server::kMaxConnections


def fail(msg):
    print("serve_smoke: FAIL:", msg)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_smoke.py path/to/wm_serve")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.argv[1], "--port", "0", "--print-port"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("port "):
            fail("no port line from daemon: %r" % line)
        port = int(line.split()[1])

        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        f = sock.makefile("rw", encoding="utf-8", newline="\n")

        def ask(obj_or_text):
            text = (
                obj_or_text
                if isinstance(obj_or_text, str)
                else json.dumps(obj_or_text)
            )
            f.write(text + "\n")
            f.flush()
            reply = f.readline()
            if not reply:
                fail("connection closed answering %r" % text[:200])
            return json.loads(reply)

        g = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}

        r = ask({"op": "run", "machine": "degree-parity", "graph": g})
        if not r["ok"] or r["result"]["outputs"] != [0, 0, 0, 0]:
            fail("run: %r" % r)

        r = ask(
            {
                "op": "modelcheck",
                "formula": "<*,*> T",
                "model": {"graph": g, "variant": "--"},
            }
        )
        if not r["ok"] or r["result"]["count"] != 4:
            fail("modelcheck: %r" % r)

        r = ask({"op": "canon", "kind": "graph", "graph": g})
        if not r["ok"] or len(r["result"]["hash"]) != 16:
            fail("canon: %r" % r)

        r = ask(
            {
                "op": "classify",
                "problem": "degree-parity",
                "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
            }
        )
        if not r["ok"] or len(r["result"]["classes"]) != 7:
            fail("classify: %r" % r)

        r = ask("{not json")
        if r["ok"] or r["error"]["code"] != "parse_error":
            fail("malformed line: %r" % r)

        r = ask({"op": "stats"})
        if not r["ok"] or r["result"]["cache"]["misses"] < 4:
            fail("stats: %r" % r)
        if "window" not in r["result"]:
            fail("stats reply lacks the window section: %r" % r)

        # Metrics scrape: every line must clear the text-format grammar,
        # and the per-endpoint request totals must add up to exactly the
        # requests this script sent (the malformed line never reaches a
        # handler; the metrics request counts itself before rendering).
        r = ask({"op": "metrics"})
        if not r["ok"] or r["result"]["format"] != "prometheus-0.0.4":
            fail("metrics: %r" % r)
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r" (\+Inf|-?[0-9.eE+-]+)$"
        )
        requests_total = 0
        saw_help = 0
        for line in r["result"]["text"].splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                saw_help += 1
                continue
            if not sample_re.match(line):
                fail("metrics line fails the exposition grammar: %r" % line)
            if line.startswith("serve_requests_total{"):
                requests_total += int(line.rsplit(" ", 1)[1])
        if saw_help == 0:
            fail("metrics exposition carries no HELP/TYPE headers")
        # run + modelcheck + canon + classify + stats + metrics = 6.
        if requests_total != 6:
            fail("serve_requests_total sums to %d, want 6" % requests_total)

        # Hostile formulas: each once overflowed the daemon's stack.
        model = {"graph": g, "variant": "--"}
        for name, formula in (
            ("200 KB of negations", "~" * 200000 + "T"),
            ("66,000-conjunct chain", "&".join(["q1"] * 66000)),
        ):
            r = ask({"op": "modelcheck", "formula": formula, "model": model})
            if r["ok"] or r["error"]["code"] != "bad_formula":
                fail("%s: %r" % (name, r))
            if not ask({"op": "stats"})["ok"]:
                fail("connection stopped answering after the %s" % name)

        def status_kib(name):
            with open("/proc/%d/status" % proc.pid) as status:
                for field in status:
                    if field.startswith(name + ":"):
                        return int(field.split()[1])
            fail("no %s for the daemon" % name)

        # An explicit model registers one successor row per state and
        # distinct modality; this one once took the daemon to ~735 MiB.
        edges = [[m // 65, m % 65, m % 2048, m * 7 % 2048]
                 for m in range(4225)]
        r = ask({"op": "modelcheck", "formula": "T", "timeout_ms": 1000,
                 "model": {"states": 2048, "props": 0, "edges": edges}})
        if r["ok"] or r["error"]["code"] != "bad_request":
            fail("2,048 states x 4,225 modalities: %r" % r)
        if status_kib("VmHWM") > 128 * 1024:
            fail("VmHWM reached %d KiB" % status_kib("VmHWM"))
        sock.close()

        def vm_size_kib():
            return status_kib("VmSize")

        def one_connection():
            c = socket.create_connection(("127.0.0.1", port), timeout=5)
            c.sendall(b'{"op": "stats"}\n')
            reply = c.makefile("rb").readline()
            c.close()
            if not reply or not json.loads(reply)["ok"]:
                fail("a sequential connection got no stats reply")

        # A connection thread that starts before the previous one has
        # exited maps one more malloc arena and stack: a few connections
        # held open at once make those before the baseline is read.
        warm = []
        for _ in range(4):
            warm.append(socket.create_connection(("127.0.0.1", port),
                                                 timeout=5))
            warm[-1].sendall(b'{"op": "stats"}\n')
            if not warm[-1].makefile("rb").readline():
                fail("a held warm-up connection got no stats reply")
        for c in warm:
            c.close()
        for _ in range(300):
            one_connection()
        vm300 = vm_size_kib()
        for _ in range(300):
            one_connection()
        vm600 = vm_size_kib()
        if vm600 - vm300 > 64 * 1024:
            fail("VmSize grew from %d to %d KiB between connections 300 "
                 "and 600" % (vm300, vm600))

        held = [socket.create_connection(("127.0.0.1", port), timeout=5)
                for _ in range(MAX_CONNECTIONS)]
        extra = socket.create_connection(("127.0.0.1", port), timeout=2)
        try:
            lines = extra.makefile("rb").readlines()
        except socket.timeout:
            fail("connection %d got no busy reply" % (MAX_CONNECTIONS + 1))
        if (len(lines) != 1 or
                json.loads(lines[0])["error"]["code"] != "busy"):
            fail("connection %d: want one busy line, got %r"
                 % (MAX_CONNECTIONS + 1, lines))
        for c in held + [extra]:
            c.close()

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=max(0.1, DEADLINE - (time.monotonic() - start)))
        if rc != 0:
            fail("daemon exited %d after SIGTERM" % rc)
    finally:
        if proc.poll() is None:
            proc.kill()
    print("serve_smoke: OK (%.1fs)" % (time.monotonic() - start))


if __name__ == "__main__":
    main()
