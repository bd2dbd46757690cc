"""RD012 violation: raw network I/O outside the serving daemon, and the
stdlib HTTP client, which no module may import."""

import socket
from http.client import HTTPConnection


def probe(host: str, port: int) -> bool:
    with socket.create_connection((host, port), timeout=1.0):
        return True


def fetch(host: str, port: int) -> bytes:
    connection = HTTPConnection(host, port)
    connection.request("GET", "/healthz")
    return connection.getresponse().read()
