"""A raw-socket HTTP client for requests ``urllib`` refuses to send."""

from __future__ import annotations

import json
import socket


def post_declaring_length(port, path, content_length, timeout=10):
    """POST ``path`` with a literal ``Content-Length`` header and no body.

    The socket stays open for writing until the answer arrives, so a
    server that waits for EOF instead of answering hits ``timeout``
    (raising :class:`TimeoutError`) rather than passing.  Returns
    ``(status, json_body)``.
    """
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head.encode())
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    header, _, body = response.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(body)
