"""``cord-serve`` -- the campaign service's command-line face.

``cord-serve serve`` runs a server in the foreground (exit code 0 on a
clean drain, 71 when resumable jobs remain, 2 on bad usage); every
other subcommand is a thin client call printing one canonical-JSON
response line to stdout -- except ``result``, which on success prints
the campaign *report text* so that::

    cord-serve result --socket S <job>

is byte-comparable (``diff``-able) with ``cord-repro inject``'s stdout
for the same spec.  Client subcommands exit 0 on an ``ok`` response, 75
(EX_TEMPFAIL) on a retryable rejection, and 1 on any other error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

from repro.service import protocol
from repro.service.admission import ServiceLimits
from repro.service.client import ServiceClient, ServiceUnavailable

#: Exit status of a retryable rejection (sysexits EX_TEMPFAIL).
RETRY_EXIT_CODE = 75


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cord-serve",
        description="Race-detection campaign service (server and client).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a campaign server")
    serve.add_argument("--root", required=True,
                       help="state root (trace store + job WAL)")
    _add_endpoint_args(serve)
    serve.add_argument("--queue-max", type=int, default=None,
                       help="max active jobs before backpressure")
    serve.add_argument("--tenant-max", type=int, default=None,
                       help="max active jobs per tenant")
    serve.add_argument("--retry-after", type=float, default=None,
                       help="retry_after hint on rejections (seconds)")
    serve.add_argument("--concurrency", type=int, default=None,
                       help="jobs executed concurrently (and stage "
                            "processes forked)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-job deadline (seconds)")

    submit = _client_parser(sub, "submit", "submit a campaign job")
    submit.add_argument("workload")
    submit.add_argument("-n", "--runs", type=int, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--scale", type=float, default=None)
    submit.add_argument("--switch-probability", type=float, default=None)
    submit.add_argument("--tenant", default=None)
    submit.add_argument("--deadline", type=float, default=None)

    for name, help_text in (
        ("status", "one job's state snapshot"),
        ("result", "wait for and print a job's report"),
        ("cancel", "cancel a queued or running job"),
    ):
        cmd = _client_parser(sub, name, help_text)
        cmd.add_argument("job")
        if name == "result":
            cmd.add_argument("--stream", action="store_true",
                            help="print per-run event lines as they land")
            cmd.add_argument("--timeout", type=float, default=None,
                            help="give up (exit 75) after this many seconds")

    _client_parser(sub, "health", "server health and stats")
    _client_parser(sub, "drain", "ask the server to drain gracefully")

    sub.add_parser(
        "worker",
        help="run a remote execution agent (see cord-worker --help)",
        add_help=False,
    )
    return parser


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default=None,
                        help="unix socket path (default: <root>/service.sock)")
    parser.add_argument("--host", default=None,
                        help="TCP host (instead of a unix socket)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral)")


def _client_parser(sub, name: str, help_text: str):
    parser = sub.add_parser(name, help=help_text)
    _add_endpoint_args(parser)
    parser.add_argument("--timeout-connect", type=float, default=60.0,
                        help="socket timeout per request (seconds)")
    parser.add_argument(
        "--connect-timeout", type=float, default=0.0,
        help="retry refused/reset connects with capped exponential "
             "backoff for up to this many seconds (0 = fail fast)",
    )
    return parser


def _client(args) -> ServiceClient:
    if args.socket is None and args.host is None:
        raise SystemExit(
            "cord-serve: error: need --socket or --host/--port"
        )
    return ServiceClient(
        socket_path=args.socket, host=args.host,
        port=args.port or None, timeout=args.timeout_connect,
        connect_timeout=args.connect_timeout,
    )


def _emit(response: dict) -> int:
    sys.stdout.write(
        protocol.encode_message(response).decode("utf-8")
    )
    if response.get("ok"):
        return 0
    if response.get("error") in protocol.RETRYABLE:
        return RETRY_EXIT_CODE
    return 1


def _cmd_serve(args) -> int:
    from repro.service.server import CampaignServer

    def given(**flags):
        """The flags set on the command line; the rest keep defaults."""
        return {k: v for k, v in flags.items() if v is not None}

    server = CampaignServer(
        root=args.root,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        limits=ServiceLimits(**given(
            queue_max=args.queue_max,
            tenant_max=args.tenant_max,
            retry_after_s=args.retry_after,
        )),
        default_deadline_s=args.deadline,
        **given(concurrency=args.concurrency),
    )
    return asyncio.run(server.serve())


def _cmd_result(args, client: ServiceClient) -> int:
    if args.stream:
        final: Optional[dict] = None
        for event in client.stream_result(args.job, timeout_s=args.timeout):
            if event.get("final"):
                final = event
                break
            sys.stdout.write(json.dumps(event, sort_keys=True) + "\n")
        response = final or {}
    else:
        response = client.result(args.job, timeout_s=args.timeout)
    if response.get("ok") and isinstance(response.get("report"), str):
        # The payload clients diff against `cord-repro inject`.
        sys.stdout.write(response["report"])
        return 0
    return _emit(response)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "worker":
        # Delegated wholesale: the agent owns its own argparse surface
        # (`cord-serve worker ...` == `cord-worker ...`).
        from repro.service.workers.remote import main as worker_main

        return worker_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    client = _client(args)
    try:
        if args.command == "submit":
            return _emit(client.submit(
                args.workload,
                runs=args.runs,
                seed=args.seed,
                scale=args.scale,
                switch_probability=args.switch_probability,
                tenant=args.tenant,
                deadline_s=args.deadline,
            ))
        if args.command == "status":
            return _emit(client.status(args.job))
        if args.command == "result":
            return _cmd_result(args, client)
        if args.command == "cancel":
            return _emit(client.cancel(args.job))
        if args.command == "health":
            return _emit(client.health())
        if args.command == "drain":
            return _emit(client.drain())
    except ServiceUnavailable as exc:
        print("cord-serve: %s" % exc, file=sys.stderr)
        return RETRY_EXIT_CODE
    raise SystemExit("cord-serve: unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
