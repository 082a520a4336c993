"""Tiny term language for the straightening command.

Grammar (infix, left associative):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := rational | 't' '(' int ',' int ')'
             | 'theta' '(' int ',' int ')' | '(' expr ')' | '-' factor
    rational:= int ('/' int)?

t(q,p) is the generator at the lattice point (q,p); theta(q,p) the theta
element of that class.  Parse errors carry the offending position.
"""

from __future__ import annotations

from fractions import Fraction


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_CHARS = {"+", "-", "*", "(", ")", ","}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS or ch == "/":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((("num", int(text[i:j])), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append((("name", text[i:j]), i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, algebra):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.pos][0]

    def where(self):
        return self.tokens[self.pos][1]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym):
        tok, at = self.advance()
        if tok != sym:
            raise ExprError(f"expected {sym!r}", at)

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ExprError("trailing input", self.where())
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        tok = self.peek()
        at = self.where()
        if tok == "-":
            self.advance()
            return -self.factor()
        if tok == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if isinstance(tok, tuple) and tok[0] == "num":
            self.advance()
            num = tok[1]
            if self.peek() == "/":
                self.advance()
                den_tok, den_at = self.advance()
                if not (isinstance(den_tok, tuple) and den_tok[0] == "num"):
                    raise ExprError("expected denominator", den_at)
                return self.algebra.one.scale(Fraction(num, den_tok[1]))
            return self.algebra.one.scale(num)
        if isinstance(tok, tuple) and tok[0] == "name":
            self.advance()
            name = tok[1]
            if name not in ("t", "theta"):
                raise ExprError(f"unknown symbol {name!r}", at)
            self.expect("(")
            q = self._int()
            self.expect(",")
            p = self._int()
            self.expect(")")
            if name == "t":
                return self.algebra.generator((q, p))
            return self.algebra.theta((q, p))
        raise ExprError("expected a factor", at)

    def _int(self):
        sign = 1
        if self.peek() == "-":
            self.advance()
            sign = -1
        tok, at = self.advance()
        if not (isinstance(tok, tuple) and tok[0] == "num"):
            raise ExprError("expected an integer", at)
        return sign * tok[1]


def parse_expression(text: str, algebra):
    """Parse and straighten a term-language expression in the algebra."""
    return _Parser(text, algebra).parse()
