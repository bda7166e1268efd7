"""JSON encoders built once, for the hot paths that encode per record or per digest.

json.JSONEncoder.encode builds a new C encoder on every call; make_encoder
builds it once and calls it directly.  The text is enc.encode's, byte for
byte.  The one difference is the cycle check, which the built encoder
leaves out: a cyclic value raises RecursionError where enc.encode raises
ValueError.  No value the package encodes can hold a cycle.
"""

from __future__ import annotations

import json
from typing import Callable


def make_encoder(enc: json.JSONEncoder) -> Callable[[object], str]:
    """enc.encode as one built C encoder; enc.encode itself where there is no C
    encoder, or where enc indents (the C encoder of Python 3.11 ignores indent)."""
    c_make_encoder = json.encoder.c_make_encoder  # looked up here, so a test can take it away
    if c_make_encoder is None or enc.indent is not None:
        return enc.encode
    quote = (json.encoder.encode_basestring_ascii if enc.ensure_ascii
             else json.encoder.encode_basestring)
    encode = c_make_encoder(None, enc.default, quote, None, enc.key_separator,
                            enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)
    return lambda obj: "".join(encode(obj, 0))
