//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::lex;
use crate::token::{Keyword, Span, Token, TokenKind};

/// Parses a full source file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; the parser does not
/// attempt recovery (the flow treats any malformed input as fatal, as the
/// original PyVerilog-based prototype did).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = alice_verilog::parse_source("module m(input wire a); endmodule")?;
/// assert_eq!(f.modules[0].ports.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_source(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        pending_nets: Vec::new(),
        depth: 0,
    }
    .source_file()
}

/// How deeply expressions and statements may nest: each expression or
/// statement inside another opens one level (a parenthesis,
/// concatenation, index, unary operator, `begin` block, or branch of an
/// `if` or `case`), while the operands of a run of binary operators, the
/// arms of an `else if` chain and the else-operands of a `?:` chain stay
/// on one level. Deeper input is rejected with
/// [`ParseErrorKind::Unsupported`] instead of overflowing the stack. A
/// debug build overflows a 2 MiB thread at about 310 nested
/// concatenations (the costliest level), so the deepest accepted input
/// fits there with a third to spare.
const MAX_NESTING: usize = 200;

/// Unary operators, tried in this order.
const UNARY_OPS: [(&str, UnaryOp); 9] = [
    ("~&", UnaryOp::RedNand),
    ("~|", UnaryOp::RedNor),
    ("~^", UnaryOp::RedXnor),
    ("~", UnaryOp::Not),
    ("!", UnaryOp::LogicNot),
    ("-", UnaryOp::Neg),
    ("&", UnaryOp::RedAnd),
    ("|", UnaryOp::RedOr),
    ("^", UnaryOp::RedXor),
];

/// Binary operators by level, loosest-binding first; each level is
/// left-associative.
const BINARY_LEVELS: [&[(&str, BinaryOp)]; 10] = [
    &[("||", BinaryOp::LogicOr)],
    &[("&&", BinaryOp::LogicAnd)],
    &[("|", BinaryOp::Or)],
    &[
        ("^", BinaryOp::Xor),
        ("~^", BinaryOp::Xnor),
        ("^~", BinaryOp::Xnor),
    ],
    &[("&", BinaryOp::And)],
    &[("==", BinaryOp::Eq), ("!=", BinaryOp::Ne)],
    &[
        ("<=", BinaryOp::Le),
        (">=", BinaryOp::Ge),
        ("<", BinaryOp::Lt),
        (">", BinaryOp::Gt),
    ],
    &[("<<", BinaryOp::Shl), (">>", BinaryOp::Shr)],
    &[("+", BinaryOp::Add), ("-", BinaryOp::Sub)],
    &[
        ("*", BinaryOp::Mul),
        ("/", BinaryOp::Div),
        ("%", BinaryOp::Mod),
    ],
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Extra declarations from `wire a, b, c;` waiting to be emitted as items.
    pending_nets: Vec<NetDecl>,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(
            ParseErrorKind::Unexpected {
                expected: expected.into(),
                found: self.peek().to_string(),
            },
            self.peek_span(),
        ))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("`{p}`"))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), TokenKind::Kw(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("`{}`", kw.as_str()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        if let TokenKind::Ident(s) = self.peek() {
            let s = s.clone();
            self.bump();
            Ok(s)
        } else {
            self.err("identifier")
        }
    }

    /// Runs `f` one nesting level deeper. Every recursion of the parser
    /// passes through here, so [`MAX_NESTING`] bounds its stack depth.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                ParseErrorKind::Unsupported(format!("nesting deeper than {MAX_NESTING} levels")),
                self.peek_span(),
            ));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn source_file(mut self) -> Result<SourceFile, ParseError> {
        let mut modules = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            self.expect_kw(Keyword::Module)?;
            modules.push(self.module()?);
        }
        Ok(SourceFile { modules })
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.eat_kw(Keyword::Parameter);
                let pname = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                params.push(Parameter { name: pname, value });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_punct("(") && !self.eat_punct(")") {
            loop {
                ports.push(self.ansi_port(ports.last())?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        let mut items = Vec::new();
        loop {
            if !self.pending_nets.is_empty() {
                items.push(Item::Net(self.pending_nets.remove(0)));
                continue;
            }
            if self.eat_kw(Keyword::Endmodule) {
                break;
            }
            if matches!(self.peek(), TokenKind::Eof) {
                return self.err("`endmodule`");
            }
            items.push(self.item()?);
        }
        Ok(Module {
            name,
            params,
            ports,
            items,
        })
    }

    /// One ANSI port. If direction keywords are omitted, it inherits the
    /// previous port's direction/type (`input [3:0] a, b`).
    fn ansi_port(&mut self, prev: Option<&Port>) -> Result<Port, ParseError> {
        let dir = if self.eat_kw(Keyword::Input) {
            Some(Direction::Input)
        } else if self.eat_kw(Keyword::Output) {
            Some(Direction::Output)
        } else if self.eat_kw(Keyword::Inout) {
            Some(Direction::Inout)
        } else {
            None
        };
        let mut is_reg = false;
        if self.eat_kw(Keyword::Wire) {
            is_reg = false;
        } else if self.eat_kw(Keyword::Reg) {
            is_reg = true;
        } else if dir.is_none() {
            // bare identifier: inherit everything from previous port
            let name = self.expect_ident()?;
            let prev = prev.ok_or_else(|| {
                ParseError::new(
                    ParseErrorKind::Unsupported(
                        "non-ANSI port list (declare directions in the header)".into(),
                    ),
                    self.peek_span(),
                )
            })?;
            return Ok(Port {
                dir: prev.dir,
                is_reg: prev.is_reg,
                name,
                range: prev.range.clone(),
            });
        }
        let dir = match (dir, prev) {
            (Some(d), _) => d,
            (None, Some(p)) => p.dir,
            (None, None) => {
                return self.err("port direction");
            }
        };
        let range = self.opt_range()?;
        let name = self.expect_ident()?;
        Ok(Port {
            dir,
            is_reg,
            name,
            range,
        })
    }

    fn opt_range(&mut self) -> Result<Option<Range>, ParseError> {
        if self.eat_punct("[") {
            let msb = self.expr()?;
            self.expect_punct(":")?;
            let lsb = self.expr()?;
            self.expect_punct("]")?;
            Ok(Some(Range { msb, lsb }))
        } else {
            Ok(None)
        }
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if !self.pending_nets.is_empty() {
            return Ok(Item::Net(self.pending_nets.remove(0)));
        }
        match self.peek().clone() {
            TokenKind::Kw(Keyword::Wire) | TokenKind::Kw(Keyword::Reg) => {
                let kind = if self.eat_kw(Keyword::Wire) {
                    NetKind::Wire
                } else {
                    self.expect_kw(Keyword::Reg)?;
                    NetKind::Reg
                };
                let range = self.opt_range()?;
                // Multiple comma-separated declarations become one item per
                // name; we fold the extras into a Block-like sequence by
                // returning the first and pushing the rest lazily.
                let mut decls = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    let init = if self.eat_punct("=") {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    decls.push(NetDecl {
                        kind,
                        name,
                        range: range.clone(),
                        init,
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
                let first = decls.remove(0);
                // Re-queue remaining declarations as synthetic tokens is
                // messy; instead we return a fused item when only one decl
                // and expand multi-decls into a MultiNet holder below.
                if decls.is_empty() {
                    Ok(Item::Net(first))
                } else {
                    // Represent as consecutive items via a small trick: we
                    // stash extras and the caller loop pulls them on the next
                    // `item()` call.
                    self.pending_nets = decls;
                    Ok(Item::Net(first))
                }
            }
            TokenKind::Kw(Keyword::Integer) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct(";")?;
                Ok(Item::Net(NetDecl {
                    kind: NetKind::Reg,
                    name,
                    range: Some(Range {
                        msb: Expr::num(31),
                        lsb: Expr::num(0),
                    }),
                    init: None,
                }))
            }
            TokenKind::Kw(Keyword::Parameter) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Param(Parameter { name, value }))
            }
            TokenKind::Kw(Keyword::Localparam) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Localparam(Parameter { name, value }))
            }
            TokenKind::Kw(Keyword::Assign) => {
                self.bump();
                let lhs = self.lvalue()?;
                self.expect_punct("=")?;
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Assign(Assign { lhs, rhs }))
            }
            TokenKind::Kw(Keyword::Always) => {
                self.bump();
                Ok(Item::Always(self.always_block()?))
            }
            TokenKind::Ident(_) => self.instance(),
            _ => self.err("module item"),
        }
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, ParseError> {
        self.expect_punct("@")?;
        // Verilog-2001 `@*` is `@(*)` without the parentheses.
        if self.eat_punct("*") {
            let body = self.stmt()?;
            return Ok(AlwaysBlock {
                sensitivity: Sensitivity::Comb,
                body,
            });
        }
        self.expect_punct("(")?;
        let sensitivity = if self.eat_punct("*") {
            Sensitivity::Comb
        } else {
            let mut edges = Vec::new();
            loop {
                let kind = if self.eat_kw(Keyword::Posedge) {
                    EdgeKind::Pos
                } else if self.eat_kw(Keyword::Negedge) {
                    EdgeKind::Neg
                } else {
                    // Plain identifier list @(a or b) — treat as comb.
                    let _ = self.expect_ident()?;
                    while self.eat_kw(Keyword::Or) || self.eat_punct(",") {
                        let _ = self.expect_ident()?;
                    }
                    self.expect_punct(")")?;
                    let body = self.stmt()?;
                    return Ok(AlwaysBlock {
                        sensitivity: Sensitivity::Comb,
                        body,
                    });
                };
                let sig = self.expect_ident()?;
                edges.push((kind, sig));
                if !(self.eat_kw(Keyword::Or) || self.eat_punct(",")) {
                    break;
                }
            }
            Sensitivity::Edges(edges)
        };
        self.expect_punct(")")?;
        let body = self.stmt()?;
        Ok(AlwaysBlock { sensitivity, body })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw(Keyword::Begin) {
            return self.block();
        }
        if self.eat_kw(Keyword::If) {
            return self.if_chain();
        }
        if self.eat_kw(Keyword::Case) || self.eat_kw(Keyword::Casez) {
            return self.case_stmt();
        }
        self.assignment()
    }

    /// The statements of a `begin … end` block, after `begin`.
    fn block(&mut self) -> Result<Stmt, ParseError> {
        // optional label
        if self.eat_punct(":") {
            let _ = self.expect_ident()?;
        }
        let mut stmts = Vec::new();
        while !self.eat_kw(Keyword::End) {
            if matches!(self.peek(), TokenKind::Eof) {
                return self.err("`end`");
            }
            stmts.push(self.stmt()?);
        }
        Ok(Stmt::Block(stmts))
    }

    /// `(c) s`, then any `else if (c) s` arms and a final `else s`, after
    /// the first `if`. The chain is flat in the source, so its arms are
    /// read in a loop and folded from the back into nested [`Stmt::If`]s:
    /// only the branches' own statements nest.
    fn if_chain(&mut self) -> Result<Stmt, ParseError> {
        let mut arms = Vec::new();
        let mut else_stmt = None;
        loop {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            arms.push((cond, Box::new(self.stmt()?)));
            if !self.eat_kw(Keyword::Else) {
                break;
            }
            if !self.eat_kw(Keyword::If) {
                else_stmt = Some(Box::new(self.stmt()?));
                break;
            }
        }
        let (cond, then_stmt) = arms.pop().expect("an `if` has one arm");
        let last = Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        };
        Ok(arms
            .into_iter()
            .rfold(last, |else_stmt, (cond, then_stmt)| Stmt::If {
                cond,
                then_stmt,
                else_stmt: Some(Box::new(else_stmt)),
            }))
    }

    /// The arms of a `case` or `casez`, after its keyword.
    fn case_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let expr = self.expr()?;
        self.expect_punct(")")?;
        let mut arms = Vec::new();
        let mut default = None;
        while !self.eat_kw(Keyword::Endcase) {
            if matches!(self.peek(), TokenKind::Eof) {
                return self.err("`endcase`");
            }
            if self.eat_kw(Keyword::Default) {
                self.eat_punct(":");
                default = Some(Box::new(self.stmt()?));
                continue;
            }
            let first = self.expr()?;
            let labels = self.expr_list(first)?;
            self.expect_punct(":")?;
            let body = self.stmt()?;
            arms.push(CaseArm { labels, body });
        }
        Ok(Stmt::Case {
            expr,
            arms,
            default,
        })
    }

    fn assignment(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.lvalue()?;
        if self.eat_punct("<=") {
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::NonBlocking(lhs, rhs))
        } else if self.eat_punct("=") {
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::Blocking(lhs, rhs))
        } else {
            self.err("`=` or `<=`")
        }
    }

    fn instance(&mut self) -> Result<Item, ParseError> {
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let pname = self.expect_ident()?;
                self.expect_punct("(")?;
                let v = self.expr()?;
                self.expect_punct(")")?;
                params.push((pname, v));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let conns = if matches!(self.peek(), TokenKind::Punct(".")) {
            let mut named = Vec::new();
            loop {
                self.expect_punct(".")?;
                let pname = self.expect_ident()?;
                self.expect_punct("(")?;
                let e = if matches!(self.peek(), TokenKind::Punct(")")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(")")?;
                named.push((pname, e));
                if !self.eat_punct(",") {
                    break;
                }
            }
            PortConns::Named(named)
        } else if matches!(self.peek(), TokenKind::Punct(")")) {
            PortConns::Ordered(Vec::new())
        } else {
            let first = self.expr()?;
            PortConns::Ordered(self.expr_list(first)?)
        };
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(Item::Instance(Instance {
            module,
            name,
            params,
            conns,
        }))
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        if self.eat_punct("{") {
            let mut parts = vec![self.nested(Self::lvalue)?];
            while self.eat_punct(",") {
                parts.push(self.nested(Self::lvalue)?);
            }
            self.expect_punct("}")?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let first = self.expr()?;
            if self.eat_punct(":") {
                let lsb = self.expr()?;
                self.expect_punct("]")?;
                Ok(LValue::Part(name, first, lsb))
            } else {
                self.expect_punct("]")?;
                Ok(LValue::Bit(name, first))
            }
        } else {
            Ok(LValue::Id(name))
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary()?;
        if self.eat_punct("?") {
            self.ternary_chain(cond)
        } else {
            Ok(cond)
        }
    }

    /// `c ? a : c2 ? b : …`, after the first `?`. The chain is flat in
    /// the source, so its arms are read in a loop and folded from the
    /// back into nested [`Expr::Ternary`]s: only the then-operands nest.
    fn ternary_chain(&mut self, cond: Expr) -> Result<Expr, ParseError> {
        let mut arms = Vec::new();
        let mut next = cond;
        loop {
            let then = self.expr()?;
            self.expect_punct(":")?;
            arms.push((next, then));
            next = self.binary()?;
            if !self.eat_punct("?") {
                break;
            }
        }
        Ok(arms.into_iter().rfold(next, |else_expr, (cond, then)| {
            Expr::Ternary(Box::new(cond), Box::new(then), Box::new(else_expr))
        }))
    }

    /// Operands joined by binary operators. Each left operand waits on
    /// `pending` with its operator until an operator that binds no
    /// tighter arrives, or the run ends: tighter [`BINARY_LEVELS`] group
    /// first and equal levels group to the left. The explicit stack
    /// makes a run of operators cost no recursion, whatever their levels.
    fn binary(&mut self) -> Result<Expr, ParseError> {
        let mut pending: Vec<(Expr, usize, BinaryOp)> = Vec::new();
        let mut rhs = self.unary()?;
        loop {
            let next = self.binary_op();
            while let Some((lhs, _, op)) =
                pending.pop_if(|(_, level, _)| next.is_none_or(|(next, _)| next <= *level))
            {
                rhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            }
            let Some((level, op)) = next else {
                return Ok(rhs);
            };
            self.bump();
            pending.push((rhs, level, op));
            rhs = self.unary()?;
        }
    }

    /// The binary operator at the cursor, with its [`BINARY_LEVELS`] level.
    fn binary_op(&self) -> Option<(usize, BinaryOp)> {
        let TokenKind::Punct(p) = self.peek() else {
            return None;
        };
        BINARY_LEVELS
            .iter()
            .enumerate()
            .find_map(|(level, ops)| ops.iter().find(|(q, _)| q == p).map(|&(_, op)| (level, op)))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        for &(p, op) in &UNARY_OPS {
            if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
                self.bump();
                let e = self.nested(Self::unary)?;
                return Ok(Expr::Unary(op, Box::new(e)));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.eat_punct("[") {
            e = self.select(e)?;
        }
        Ok(e)
    }

    /// `base[index]` or `base[msb:lsb]`, after the `[`.
    fn select(&mut self, base: Expr) -> Result<Expr, ParseError> {
        let first = self.expr()?;
        if self.eat_punct(":") {
            let lsb = self.expr()?;
            self.expect_punct("]")?;
            Ok(Expr::Part(Box::new(base), Box::new(first), Box::new(lsb)))
        } else {
            self.expect_punct("]")?;
            Ok(Expr::Bit(Box::new(base), Box::new(first)))
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        if self.eat_punct("{") {
            return self.concat();
        }
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(Expr::Id(s))
            }
            TokenKind::Number { width, value } => {
                self.bump();
                Ok(Expr::Literal(Number { width, value }))
            }
            _ => self.err("expression"),
        }
    }

    /// A concatenation `{a, …}` or replication `{n{a, …}}`, after the
    /// first `{`.
    fn concat(&mut self) -> Result<Expr, ParseError> {
        let first = self.expr()?;
        let e = if self.eat_punct("{") {
            // replication {N{expr, ...}}
            let inner = self.expr()?;
            let inner = self.expr_list(inner)?;
            self.expect_punct("}")?;
            Expr::Repeat(Box::new(first), inner)
        } else {
            Expr::Concat(self.expr_list(first)?)
        };
        self.expect_punct("}")?;
        Ok(e)
    }

    /// `first` and the comma-separated expressions after it.
    fn expr_list(&mut self, first: Expr) -> Result<Vec<Expr>, ParseError> {
        let mut list = vec![first];
        while self.eat_punct(",") {
            list.push(self.expr()?);
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` nested parentheses, concatenations, index expressions,
    /// parentheses behind every binary operator, `begin` blocks or `if`
    /// statements in a module, with the nesting levels the module adds
    /// around them.
    fn nested_source(shape: &str, n: usize) -> (String, usize) {
        let (open, close) = match shape {
            "op" => ("a || a && a | a ^ a & a == a < a << a + a * (", ")"),
            "begin" => ("begin ", " end"),
            "if" => ("if (a) ", ""),
            "[" => ("a[", "]"),
            "(" => ("(", ")"),
            "{" => ("{", "}"),
            _ => unreachable!("unknown shape {shape}"),
        };
        let (open, close) = (open.repeat(n), close.repeat(n));
        if matches!(shape, "begin" | "if") {
            (module_with(&format!("always @(*) {open}y = a;{close}")), 2)
        } else {
            (module_with(&format!("assign y = {open}a{close};")), 1)
        }
    }

    fn module_with(item: &str) -> String {
        format!("module m(input wire a, output reg y); {item} endmodule")
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let checked = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for shape in ["(", "{", "[", "op", "begin", "if"] {
                    let deepest = MAX_NESTING - nested_source(shape, 0).1;
                    let (at_limit, _) = nested_source(shape, deepest);
                    if let Err(e) = parse_source(&at_limit) {
                        panic!("{deepest} nested `{shape}` must parse: {e}");
                    }
                    let (deeper, _) = nested_source(shape, deepest + 1);
                    let err = parse_source(&deeper).expect_err("one level deeper fails");
                    assert!(
                        matches!(&err.kind, ParseErrorKind::Unsupported(what)
                            if what.contains(&MAX_NESTING.to_string())),
                        "`{shape}`: {err}"
                    );
                }
                // Chains are flat in the source and stay on one level.
                let arms = 5 * MAX_NESTING;
                let else_ifs = " else if (a) y = a;".repeat(arms);
                let else_ifs = module_with(&format!("always @(*) if (a) y = a;{else_ifs}"));
                if let Err(e) = parse_source(&else_ifs) {
                    panic!("{arms} `else if` arms must parse: {e}");
                }
                let ternaries = "a ? a : ".repeat(arms);
                if let Err(e) = parse_source(&module_with(&format!("assign y = {ternaries}a;"))) {
                    panic!("{arms} `?:` arms must parse: {e}");
                }
            })
            .expect("spawn a 2 MiB thread")
            .join();
        assert!(checked.is_ok(), "every shape checked on a 2 MiB stack");
    }

    #[test]
    fn chains_fold_to_the_right_and_operators_group_by_level() {
        let items = |item: &str| {
            parse_source(&module_with(item)).expect("parse").modules[0]
                .items
                .clone()
        };
        let rhs = |e: &str| match &items(&format!("assign y = {e};"))[0] {
            Item::Assign(a) => a.rhs.clone(),
            other => panic!("not an assign: {other:?}"),
        };
        let id = |s: &str| Box::new(Expr::Id(s.into()));
        let bin = |op, l, r| Box::new(Expr::Binary(op, l, r));
        let inner = Box::new(Expr::Ternary(id("c"), id("d"), id("e")));
        assert_eq!(
            rhs("a ? b : c ? d : e"),
            Expr::Ternary(id("a"), id("b"), inner)
        );
        let ab = bin(BinaryOp::Sub, id("a"), id("b"));
        let abcd = bin(BinaryOp::Sub, ab, bin(BinaryOp::Mul, id("c"), id("d")));
        assert_eq!(rhs("a - b - c * d + e"), *bin(BinaryOp::Add, abcd, id("e")));
        let chain = items("always @(*) if (a) y = a; else if (a) y = a; else y = a;");
        let Item::Always(AlwaysBlock {
            body:
                Stmt::If {
                    else_stmt: Some(inner),
                    ..
                },
            ..
        }) = &chain[0]
        else {
            panic!("not an `if`: {chain:?}");
        };
        assert!(matches!(
            **inner,
            Stmt::If {
                else_stmt: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parse_module_with_params_and_instance() {
        let src = r#"
module child #(parameter W = 4) (input wire [W-1:0] a, output wire [W-1:0] y);
  assign y = ~a;
endmodule
module top(input wire [7:0] x, output wire [7:0] y);
  child #(.W(8)) c0 (.a(x), .y(y));
endmodule
"#;
        let f = parse_source(src).expect("parse");
        assert_eq!(f.modules.len(), 2);
        let top = f.module("top").expect("top exists");
        let inst = top.instances().next().expect("instance");
        assert_eq!(inst.module, "child");
        assert_eq!(inst.params.len(), 1);
    }

    #[test]
    fn parse_always_ff_with_reset() {
        let src = r#"
module d(input wire clk, input wire rst, input wire d, output reg q);
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
"#;
        let f = parse_source(src).expect("parse");
        let m = &f.modules[0];
        assert!(matches!(
            m.items[0],
            Item::Always(AlwaysBlock {
                sensitivity: Sensitivity::Edges(_),
                ..
            })
        ));
    }

    #[test]
    fn parse_case_statement() {
        let src = |sensitivity: &str| {
            format!(
                "
module c(input wire [1:0] s, output reg [3:0] y);
  always {sensitivity} begin
    case (s)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2, 2'd3: y = 4'b0100;
      default: y = 4'b0000;
    endcase
  end
endmodule
"
            )
        };
        let f = parse_source(&src("@(*)")).expect("parse");
        let bare = parse_source(&src("@*")).expect("`@*` parses");
        assert_eq!(bare, f, "`@*` is `@(*)`");
        match &f.modules[0].items[0] {
            Item::Always(ab) => {
                let inner = match &ab.body {
                    Stmt::Block(stmts) => &stmts[0],
                    other => other,
                };
                match inner {
                    Stmt::Case { arms, default, .. } => {
                        assert_eq!(arms.len(), 3);
                        assert_eq!(arms[2].labels.len(), 2);
                        assert!(default.is_some());
                    }
                    other => panic!("expected case, got {other:?}"),
                }
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parse_concat_replication_partselect() {
        let src = r#"
module x(input wire [7:0] a, output wire [15:0] y);
  assign y = {2{a[7:4], a[3:0]}};
endmodule
"#;
        assert!(parse_source(src).is_ok());
    }

    #[test]
    fn parse_multi_net_declaration() {
        let src = "module m; wire [3:0] a, b, c; endmodule";
        let f = parse_source(src).expect("parse");
        let nets: Vec<_> = f.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Net(n) => Some(n.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nets, vec!["a", "b", "c"]);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_source("module m(input wire a) endmodule").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_source("modulo m; endmodule").is_err());
    }

    #[test]
    fn precedence_of_ternary_and_or() {
        let src = "module m(input wire a, input wire b, input wire c, output wire y);\
                   assign y = a | b ? a & c : b ^ c; endmodule";
        let f = parse_source(src).expect("parse");
        match &f.modules[0].items[0] {
            Item::Assign(a) => assert!(matches!(a.rhs, Expr::Ternary(..))),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn ordered_port_connections() {
        let src = "module inv(input wire a, output wire y); assign y = ~a; endmodule\n\
                   module t(input wire x, output wire z); inv i0(x, z); endmodule";
        let f = parse_source(src).expect("parse");
        let inst = f.module("t").expect("t").instances().next().expect("i0");
        match &inst.conns {
            PortConns::Ordered(es) => assert_eq!(es.len(), 2),
            other => panic!("expected ordered, got {other:?}"),
        }
    }
}
