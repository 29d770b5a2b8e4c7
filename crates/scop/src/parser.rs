//! A mini-C frontend for affine loop nests.
//!
//! The parser accepts the subset of C that PolyBench-style kernels are
//! written in:
//!
//! * parameter declarations `param N;` / `param N, T;` — named symbolic
//!   constants usable in extents, bounds, strides and subscripts, bound to
//!   values later (see [`crate::param::ParametricScop`]),
//! * array declarations `double A[1000][1200];` (extents may be parameter
//!   expressions, e.g. `double A[N][N];`),
//! * `for` loops with affine bounds and any non-zero constant stride —
//!   increasing (`i++`, `i += k`, `i = i + k` with a `<`/`<=` bound) or
//!   decreasing (`i--`, `i -= k`, `i = i - k` with a `>`/`>=` bound) — or a
//!   declared parameter as the stride (`i += T`),
//! * `if` guards that are conjunctions of affine comparisons,
//! * assignment statements (including the compound assignments `+=`, `-=`,
//!   `*=`, `/=`) whose array subscripts are affine expressions of the loop
//!   iterators.
//!
//! Products and truncating divisions are allowed when they stay affine
//! after parameter substitution: `N / T * T` is accepted (both operands of
//! `/` are parameter expressions), `i * T` is accepted (one symbolic-affine
//! side times a parameter expression), but `i * i` and `i / 2` are
//! rejected as non-affine.
//!
//! Right-hand sides may contain arbitrary arithmetic, floating-point
//! literals and function calls; the parser only extracts the array (and
//! scalar) references in program order, which is all that cache simulation
//! needs.  Preprocessor lines and comments are skipped.
//!
//! Nesting is bounded: statements and affine expressions may each nest 64
//! levels deep, so that no source can exhaust the stack of the parser or of
//! the passes that walk its output.

use crate::ast::{ArrayAccess, ArrayDecl, CmpOp, Condition, Expr, Program, Statement};
use std::fmt;

/// How deeply statements (`for` loops, `if` guards and blocks) may nest.
/// Stays well below the 255 loop levels a symbolic cache label can address.
const MAX_STATEMENT_DEPTH: usize = 64;

/// How deeply an affine expression may nest: every parenthesised group,
/// unary minus and binary operator adds a level to the expression tree.
const MAX_EXPRESSION_DEPTH: usize = 64;

/// A parse error with a human-readable message and source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based source line on which the problem was detected.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a mini-C source text into an affine [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] when the source is outside the supported subset
/// (non-affine subscripts, unsupported loop forms, unbalanced brackets, ...).
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        params: Vec::new(),
        statement_depth: 0,
    };
    parser.program()
}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Float,
    Punct(&'static str),
}

#[derive(Clone, Debug)]
struct Token {
    tok: Tok,
    line: usize,
}

const PUNCTS: &[&str] = &[
    "<=", ">=", "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "(", ")", "[", "]",
    "{", "}", ";", ",", "=", "+", "-", "*", "/", "<", ">", "%", "!", "?", ":", ".", "&",
];

fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    let bytes: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '#' || (c == '/' && bytes.get(i + 1) == Some(&'/')) {
            // Line comments: `#` (preprocessor-style) and `//`.
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
            i += 2;
            while i < bytes.len() && !(bytes[i] == '*' && bytes.get(i + 1) == Some(&'/')) {
                if bytes[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            i += 2;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                tok: Tok::Ident(bytes[start..i].iter().collect()),
                line,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len()
                && (bytes[i].is_ascii_digit()
                    || bytes[i] == '.'
                    || bytes[i] == 'e'
                    || bytes[i] == 'E'
                    || bytes[i] == 'f'
                    || bytes[i] == 'F'
                    || ((bytes[i] == '+' || bytes[i] == '-')
                        && matches!(bytes.get(i - 1), Some('e') | Some('E'))))
            {
                if bytes[i] != '0'
                    && bytes[i] != '1'
                    && bytes[i] != '2'
                    && bytes[i] != '3'
                    && bytes[i] != '4'
                    && bytes[i] != '5'
                    && bytes[i] != '6'
                    && bytes[i] != '7'
                    && bytes[i] != '8'
                    && bytes[i] != '9'
                {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            if is_float {
                tokens.push(Token {
                    tok: Tok::Float,
                    line,
                });
            } else {
                let value = text.parse::<i64>().map_err(|_| ParseError {
                    message: format!("invalid integer literal `{text}`"),
                    line,
                })?;
                tokens.push(Token {
                    tok: Tok::Int(value),
                    line,
                });
            }
        } else {
            let rest: String = bytes[i..bytes.len().min(i + 2)].iter().collect();
            let punct = PUNCTS
                .iter()
                .find(|p| rest.starts_with(**p))
                .ok_or_else(|| ParseError {
                    message: format!("unexpected character `{c}`"),
                    line,
                })?;
            tokens.push(Token {
                tok: Tok::Punct(punct),
                line,
            });
            i += punct.len();
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parameters declared so far (`param N;`), in declaration order.
    params: Vec<String>,
    /// Statements currently open around `pos`.
    statement_depth: usize,
}

impl Parser {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self
                .tokens
                .get(self.pos.min(self.tokens.len().saturating_sub(1)))
                .map_or(0, |t| t.line),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, offset: usize) -> Option<&Tok> {
        self.tokens.get(self.pos + offset).map(|t| &t.tok)
    }

    fn advance(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Tok::Ident(name)) => Ok(name),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn is_type_name(name: &str) -> bool {
        matches!(
            name,
            "double" | "float" | "int" | "long" | "char" | "unsigned" | "short"
        )
    }

    fn elem_size(name: &str) -> u64 {
        match name {
            "double" | "long" => 8,
            "float" | "int" | "unsigned" => 4,
            "short" => 2,
            _ => 1,
        }
    }

    /// Whether every name in `expr` is a declared parameter, i.e. the
    /// expression folds to a constant once parameters are bound.
    fn is_param_expr(&self, expr: &Expr) -> bool {
        expr.iterators()
            .iter()
            .all(|name| self.params.iter().any(|p| p == name))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while self.peek().is_some() {
            if let Some(Tok::Ident(name)) = self.peek() {
                if name == "param" {
                    self.param_declaration(&mut program)?;
                    continue;
                }
                if Self::is_type_name(name) {
                    self.declaration(&mut program)?;
                    continue;
                }
            }
            let stmt = self.statement()?;
            program.stmts.push(stmt);
        }
        Ok(program)
    }

    fn param_declaration(&mut self, program: &mut Program) -> Result<(), ParseError> {
        self.expect_ident()?; // "param"
        loop {
            let name = self.expect_ident()?;
            if Self::is_type_name(&name) || name == "param" {
                return Err(self.error(format!("`{name}` cannot be used as a parameter name")));
            }
            if self.params.contains(&name) {
                return Err(self.error(format!("parameter `{name}` declared twice")));
            }
            self.params.push(name.clone());
            program.params.push(name);
            if self.eat_punct(",") {
                continue;
            }
            self.expect_punct(";")?;
            break;
        }
        Ok(())
    }

    fn declaration(&mut self, program: &mut Program) -> Result<(), ParseError> {
        let type_name = self.expect_ident()?;
        let elem_size = Self::elem_size(&type_name);
        loop {
            let name = self.expect_ident()?;
            let mut extents = Vec::new();
            while self.eat_punct("[") {
                let extent = self.affine_expr()?;
                match extent.eval_const() {
                    Some(n) if n > 0 => extents.push(Expr::Const(n)),
                    Some(_) => {
                        return Err(self.error(format!(
                            "expected a positive array extent, found `{extent}`"
                        )))
                    }
                    None => {
                        if !self.is_param_expr(&extent) {
                            return Err(self.error(format!(
                                "array extent `{extent}` must be a constant or parameter \
                                 expression"
                            )));
                        }
                        extents.push(extent);
                    }
                }
                self.expect_punct("]")?;
            }
            program.arrays.push(ArrayDecl {
                name,
                extents,
                elem_size,
            });
            if self.eat_punct(",") {
                continue;
            }
            self.expect_punct(";")?;
            break;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.statement_depth == MAX_STATEMENT_DEPTH {
            return Err(self.error(format!(
                "statements nest deeper than {MAX_STATEMENT_DEPTH} levels"
            )));
        }
        self.statement_depth += 1;
        let statement = self.nested_statement();
        self.statement_depth -= 1;
        statement
    }

    fn nested_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Some(Tok::Ident(name)) if name == "for" => self.for_statement(),
            Some(Tok::Ident(name)) if name == "if" => self.if_statement(),
            Some(Tok::Punct("{")) => {
                // An anonymous block: wrap it in an always-true guard.
                let body = self.block()?;
                Ok(Statement::If {
                    conditions: Vec::new(),
                    body,
                })
            }
            _ => self.assignment(),
        }
    }

    fn block(&mut self) -> Result<Vec<Statement>, ParseError> {
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::Punct("}")) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            body.push(self.statement()?);
        }
        self.expect_punct("}")?;
        Ok(body)
    }

    fn body(&mut self) -> Result<Vec<Statement>, ParseError> {
        if self.peek() == Some(&Tok::Punct("{")) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn for_statement(&mut self) -> Result<Statement, ParseError> {
        self.expect_ident()?; // "for"
        self.expect_punct("(")?;
        // Optional type of the induction variable: `int i = ...`.
        if let Some(Tok::Ident(name)) = self.peek() {
            if Self::is_type_name(name) {
                self.advance();
            }
        }
        let iter = self.expect_ident()?;
        if self.params.contains(&iter) {
            return Err(self.error(format!(
                "loop iterator `{iter}` shadows the parameter of the same name"
            )));
        }
        self.expect_punct("=")?;
        let init = self.affine_expr()?;
        self.expect_punct(";")?;
        let cond_iter = self.expect_ident()?;
        if cond_iter != iter {
            return Err(self.error(format!(
                "loop condition must test the loop iterator `{iter}`, found `{cond_iter}`"
            )));
        }
        // `<`/`<=` bound increasing loops from above; `>`/`>=` bound
        // decreasing loops (`i--`, `i -= k`) from below.
        let (decreasing, inclusive) = if self.eat_punct("<=") {
            (false, true)
        } else if self.eat_punct("<") {
            (false, false)
        } else if self.eat_punct(">=") {
            (true, true)
        } else if self.eat_punct(">") {
            (true, false)
        } else {
            return Err(self.error("only `<`, `<=`, `>` and `>=` loop conditions are supported"));
        };
        let bound = self.affine_expr()?;
        self.expect_punct(";")?;
        let inc_iter = self.expect_ident()?;
        if inc_iter != iter {
            return Err(self.error("loop increment must update the loop iterator"));
        }
        let stride = self.loop_stride(&iter, decreasing)?;
        self.expect_punct(")")?;
        let body = self.body()?;
        // Normalise to [lower, upper) bounds; a decreasing loop starts at
        // its initial value `upper - 1` and walks downwards.
        let (lower, upper) = if decreasing {
            let lower = if inclusive { bound } else { bound.offset(1) };
            (lower, init.offset(1))
        } else {
            let upper = if inclusive { bound.offset(1) } else { bound };
            (init, upper)
        };
        Ok(Statement::For {
            iter,
            lower,
            upper,
            stride,
            body,
        })
    }

    /// Parses the increment of a `for` loop after its iterator name:
    /// `++`/`--` (stride ±1), `+= k`/`-= k`, or `= i ± k` / `= k + i` where
    /// `k` is a positive integer constant or a declared parameter.  The
    /// direction of a constant stride must agree with the loop condition
    /// (`decreasing` is true for `>`/`>=` bounds); a parametric stride's
    /// direction is validated after substitution.
    fn loop_stride(&mut self, iter: &str, decreasing: bool) -> Result<Expr, ParseError> {
        let stride = if self.eat_punct("++") {
            Expr::Const(1)
        } else if self.eat_punct("--") {
            Expr::Const(-1)
        } else if self.eat_punct("+=") {
            self.stride_amount(false)?
        } else if self.eat_punct("-=") {
            self.stride_amount(true)?
        } else if self.eat_punct("=") {
            // `i = i + k`, `i = i - k` or `i = k + i`.
            match self.advance() {
                Some(Tok::Ident(name)) if name == iter => {
                    if self.eat_punct("+") {
                        self.stride_amount(false)?
                    } else if self.eat_punct("-") {
                        self.stride_amount(true)?
                    } else {
                        return Err(self.error(format!(
                            "loop increment must have the form `{iter} = {iter} + k`"
                        )));
                    }
                }
                Some(Tok::Int(k)) => {
                    self.expect_punct("+")?;
                    let rhs = self.expect_ident()?;
                    if rhs != iter {
                        return Err(self.error(format!(
                            "loop increment must add a constant to the iterator `{iter}`"
                        )));
                    }
                    Expr::Const(k)
                }
                other => {
                    return Err(self.error(format!(
                        "loop increment must have the form `{iter} = {iter} + k`, found {other:?}"
                    )))
                }
            }
        } else {
            return Err(self.error(
                "only `i++`, `i--`, `i += k`, `i -= k` and `i = i + k` loop increments are \
                 supported",
            ));
        };
        let Some(constant) = stride.eval_const() else {
            // A parametric stride: its magnitude (and hence direction
            // validity) is only known after substitution.
            return Ok(stride);
        };
        if constant == 0 {
            return Err(self.error("loop stride must be a non-zero integer constant"));
        }
        if decreasing && constant > 0 {
            return Err(self.error(format!(
                "a loop bounded by `>`/`>=` must decrease its iterator, got stride {constant}"
            )));
        }
        if !decreasing && constant < 0 {
            return Err(self.error(format!(
                "a loop bounded by `<`/`<=` must increase its iterator, got stride {constant} \
                 (use `>`/`>=` for decreasing loops)"
            )));
        }
        Ok(stride)
    }

    /// Parses the amount of a `+=`/`-=`-style stride: a (possibly negated)
    /// positive integer constant, or a declared parameter name.  `negate`
    /// is true for the `-=` / `i = i - k` forms.
    fn stride_amount(&mut self, negate: bool) -> Result<Expr, ParseError> {
        if let Some(Tok::Ident(name)) = self.peek() {
            if self.params.iter().any(|p| p == name) {
                let name = name.clone();
                self.advance();
                let amount = Expr::Iter(name);
                return Ok(if negate { amount.scale(-1) } else { amount });
            }
        }
        let constant = self.stride_constant()?;
        Ok(Expr::Const(if negate { -constant } else { constant }))
    }

    /// Parses the (possibly negated) integer constant of a loop stride.
    fn stride_constant(&mut self) -> Result<i64, ParseError> {
        let negative = self.eat_punct("-");
        match self.advance() {
            Some(Tok::Int(k)) => Ok(if negative { -k } else { k }),
            other => Err(self.error(format!(
                "loop stride must be a positive integer constant or parameter, found {other:?}"
            ))),
        }
    }

    fn if_statement(&mut self) -> Result<Statement, ParseError> {
        self.expect_ident()?; // "if"
        self.expect_punct("(")?;
        let mut conditions = vec![self.condition()?];
        while self.eat_punct("&&") {
            conditions.push(self.condition()?);
        }
        self.expect_punct(")")?;
        let body = self.body()?;
        Ok(Statement::If { conditions, body })
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        let lhs = self.affine_expr()?;
        let op = if self.eat_punct("<=") {
            CmpOp::Le
        } else if self.eat_punct(">=") {
            CmpOp::Ge
        } else if self.eat_punct("==") {
            CmpOp::Eq
        } else if self.eat_punct("<") {
            CmpOp::Lt
        } else if self.eat_punct(">") {
            CmpOp::Gt
        } else {
            return Err(self.error("expected a comparison operator"));
        };
        let rhs = self.affine_expr()?;
        Ok(Condition { lhs, op, rhs })
    }

    fn assignment(&mut self) -> Result<Statement, ParseError> {
        let write = self.array_reference()?;
        let compound = match self.peek() {
            Some(Tok::Punct("=")) => {
                self.advance();
                false
            }
            Some(Tok::Punct("+="))
            | Some(Tok::Punct("-="))
            | Some(Tok::Punct("*="))
            | Some(Tok::Punct("/=")) => {
                self.advance();
                true
            }
            other => {
                return Err(self.error(format!("expected an assignment operator, found {other:?}")))
            }
        };
        let mut reads = Vec::new();
        if compound {
            reads.push(write.clone());
        }
        self.scan_rhs(&mut reads)?;
        self.expect_punct(";")?;
        Ok(Statement::Assign { write, reads })
    }

    /// Parses `ident` optionally followed by affine subscripts.
    fn array_reference(&mut self) -> Result<ArrayAccess, ParseError> {
        let array = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.peek() == Some(&Tok::Punct("[")) {
            self.advance();
            indices.push(self.affine_expr()?);
            self.expect_punct("]")?;
        }
        Ok(ArrayAccess { array, indices })
    }

    /// Tolerant scan of a right-hand side up to (but not including) the
    /// terminating `;`, extracting array and scalar references in order.
    fn scan_rhs(&mut self, reads: &mut Vec<ArrayAccess>) -> Result<(), ParseError> {
        let mut paren_depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated statement")),
                Some(Tok::Punct(";")) if paren_depth == 0 => return Ok(()),
                Some(Tok::Punct("(")) => {
                    paren_depth += 1;
                    self.advance();
                }
                Some(Tok::Punct(")")) => {
                    if paren_depth == 0 {
                        return Err(self.error("unbalanced `)` in expression"));
                    }
                    paren_depth -= 1;
                    self.advance();
                }
                Some(Tok::Ident(_)) => {
                    // A function call: record nothing for the callee, its
                    // arguments are scanned as part of the surrounding loop.
                    if self.peek_at(1) == Some(&Tok::Punct("(")) {
                        self.advance();
                        continue;
                    }
                    let reference = self.array_reference()?;
                    reads.push(reference);
                }
                Some(_) => {
                    self.advance();
                }
            }
        }
    }

    /// Strict affine expression parser used for subscripts, bounds and guard
    /// conditions.
    fn affine_expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.affine_sum(0)?.0)
    }

    /// An affine sum inside `level` enclosing groups, with the depth of the
    /// expression tree it built.
    fn affine_sum(&mut self, level: usize) -> Result<(Expr, usize), ParseError> {
        let (mut expr, mut depth) = self.affine_term(level)?;
        loop {
            let subtract = if self.eat_punct("+") {
                false
            } else if self.eat_punct("-") {
                true
            } else {
                return Ok((expr, depth));
            };
            let (rhs, rhs_depth) = self.affine_term(level)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            expr = if subtract {
                expr.sub(rhs)
            } else {
                expr.add(rhs)
            };
        }
    }

    fn affine_term(&mut self, level: usize) -> Result<(Expr, usize), ParseError> {
        let (mut expr, mut depth) = self.affine_factor(level)?;
        loop {
            let divide = if self.eat_punct("*") {
                false
            } else if self.eat_punct("/") {
                true
            } else {
                return Ok((expr, depth));
            };
            let (rhs, rhs_depth) = self.affine_factor(level)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            expr = if divide {
                self.affine_quotient(expr, rhs)?
            } else {
                self.affine_product(expr, rhs)?
            };
        }
    }

    /// `depth + 1`, or an error past [`MAX_EXPRESSION_DEPTH`].
    fn deeper(&self, depth: usize) -> Result<usize, ParseError> {
        if depth < MAX_EXPRESSION_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.error(format!(
                "expression nests deeper than {MAX_EXPRESSION_DEPTH} levels"
            )))
        }
    }

    /// Builds `lhs * rhs`, folding constants and rejecting products that
    /// cannot become affine: at least one side must be a constant or a
    /// parameter expression (which substitution turns into a constant).
    fn affine_product(&mut self, lhs: Expr, rhs: Expr) -> Result<Expr, ParseError> {
        if let (Some(a), Some(b)) = (lhs.eval_const(), rhs.eval_const()) {
            return Ok(Expr::Const(a.wrapping_mul(b)));
        }
        if let Some(k) = lhs.eval_const() {
            return Ok(rhs.scale(k));
        }
        if let Some(k) = rhs.eval_const() {
            return Ok(lhs.scale(k));
        }
        if self.is_param_expr(&lhs) || self.is_param_expr(&rhs) {
            return Ok(lhs.prod(rhs));
        }
        Err(self.error("non-affine product of two iterators"))
    }

    /// Builds `lhs / rhs` (truncating), folding constants.  Both operands
    /// must be constants or parameter expressions — a quotient involving a
    /// loop iterator is non-affine even after substitution.
    fn affine_quotient(&mut self, lhs: Expr, rhs: Expr) -> Result<Expr, ParseError> {
        if let Some(0) = rhs.eval_const() {
            return Err(self.error("division by zero"));
        }
        if let (Some(a), Some(b)) = (lhs.eval_const(), rhs.eval_const()) {
            return Ok(Expr::Const(a / b));
        }
        if self.is_param_expr(&lhs) && self.is_param_expr(&rhs) {
            return Ok(lhs.div(rhs));
        }
        Err(self
            .error("non-affine division: `/` operands must be constants or parameter expressions"))
    }

    fn affine_factor(&mut self, level: usize) -> Result<(Expr, usize), ParseError> {
        match self.advance() {
            Some(Tok::Int(n)) => Ok((Expr::Const(n), 1)),
            Some(Tok::Ident(name)) => Ok((Expr::Iter(name), 1)),
            Some(Tok::Punct("-")) => {
                let (e, depth) = self.affine_factor(self.deeper(level)?)?;
                Ok((Expr::Const(0).sub(e), self.deeper(depth)?))
            }
            Some(Tok::Punct("(")) => {
                let inner = self.affine_sum(self.deeper(level)?)?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            other => Err(self.error(format!("expected an affine expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_running_example() {
        let src = r#"
            double A[1000];
            double B[1000];
            for (i = 1; i < 999; i++)
                B[i-1] = A[i-1] + A[i];
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.stmts.len(), 1);
        let Statement::For { iter, body, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(iter, "i");
        let Statement::Assign { write, reads } = &body[0] else {
            panic!()
        };
        assert_eq!(write.array, "B");
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].array, "A");
    }

    #[test]
    fn parses_triangular_matvec() {
        // The upper-triangular matrix-vector product of Figure 4.
        let src = r#"
            double A[100][100];
            double x[100];
            double c[100];
            for (i = 0; i < 100; i++) {
                c[i] = 0;
                for (j = i; j < 100; j++) {
                    c[i] = c[i] + A[i][j] * x[j];
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let Statement::For { body, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(body.len(), 2);
        let Statement::For { lower, .. } = &body[1] else {
            panic!()
        };
        assert_eq!(lower, &Expr::Iter("i".into()));
        let Statement::For { body: inner, .. } = &body[1] else {
            panic!()
        };
        let Statement::Assign { reads, .. } = &inner[0] else {
            panic!()
        };
        // Reads: c[i], A[i][j], x[j] — in program order.
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[1].array, "A");
        assert_eq!(reads[1].indices.len(), 2);
    }

    #[test]
    fn compound_assignment_reads_lhs_first() {
        let src = r#"
            double C[10][10];
            for (i = 0; i < 10; i++)
                for (j = 0; j < 10; j++)
                    C[i][j] *= 2.5;
        "#;
        let p = parse_program(src).unwrap();
        let Statement::For { body, .. } = &p.stmts[0] else {
            panic!()
        };
        let Statement::For { body, .. } = &body[0] else {
            panic!()
        };
        let Statement::Assign { write, reads } = &body[0] else {
            panic!()
        };
        assert_eq!(write.array, "C");
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].array, "C");
    }

    #[test]
    fn function_calls_and_floats_are_tolerated() {
        let src = r#"
            double A[10];
            double B[10];
            for (i = 0; i < 10; i++)
                B[i] = sqrt(A[i]) * 1.5e-3 + alpha;
        "#;
        let p = parse_program(src).unwrap();
        let Statement::For { body, .. } = &p.stmts[0] else {
            panic!()
        };
        let Statement::Assign { reads, .. } = &body[0] else {
            panic!()
        };
        // A[i] and the scalar alpha; `sqrt` is recognised as a call.
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].array, "A");
        assert_eq!(reads[1].array, "alpha");
        assert!(reads[1].indices.is_empty());
    }

    #[test]
    fn if_guards_and_le_bounds() {
        let src = r#"
            double A[20];
            for (i = 0; i <= 18; i++)
                if (i >= 2 && i < 10)
                    A[i] = A[i-2];
        "#;
        let p = parse_program(src).unwrap();
        let Statement::For { upper, body, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(upper, &Expr::Const(18).offset(1));
        let Statement::If { conditions, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(conditions.len(), 2);
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse_program("for (i = 0; i < 10; i--) ;").is_err());
        assert!(parse_program("double A[10]; for (i = 0; i != 10; i++) A[i] = 0;").is_err());
        assert!(
            parse_program("double A[10]; for (i = 0; i < 10; i++) A[i*i] = 0;").is_err(),
            "non-affine subscripts are rejected"
        );
        assert!(parse_program("double A[-3];").is_err());
    }

    #[test]
    fn parses_positive_strides() {
        for (increment, expected) in [
            ("i++", 1),
            ("i += 1", 1),
            ("i += 2", 2),
            ("i += 7", 7),
            ("i = i + 3", 3),
            ("i = 4 + i", 4),
        ] {
            let src = format!("double A[100]; for (i = 0; i < 100; {increment}) A[i] = 0;");
            let p = parse_program(&src).unwrap_or_else(|e| panic!("`{increment}`: {e}"));
            let Statement::For { stride, .. } = &p.stmts[0] else {
                panic!()
            };
            assert_eq!(stride.eval_const(), Some(expected), "`{increment}`");
        }
    }

    #[test]
    fn rejects_non_positive_and_malformed_strides() {
        for increment in ["i += 0", "i += -1", "i = i + 0", "i = i - 2", "i -= 1"] {
            let src = format!("double A[100]; for (i = 0; i < 100; {increment}) A[i] = 0;");
            let err = parse_program(&src).expect_err(increment);
            assert!(
                err.message.contains("stride") || err.message.contains("increment"),
                "`{increment}` should mention the stride: {}",
                err.message
            );
        }
        // A non-constant stride is rejected too.
        assert!(parse_program("double A[100]; for (i = 0; i < 100; i += n) A[i] = 0;").is_err());
        // ... and so is an increment of a different variable.
        assert!(parse_program("double A[100]; for (i = 0; i < 100; i = j + 1) A[i] = 0;").is_err());
    }

    #[test]
    fn parses_decreasing_loops() {
        for (increment, expected) in [
            ("i--", -1),
            ("i -= 1", -1),
            ("i -= 3", -3),
            ("i = i - 2", -2),
        ] {
            let src = format!("double A[100]; for (i = 99; i >= 0; {increment}) A[i] = 0;");
            let p = parse_program(&src).unwrap_or_else(|e| panic!("`{increment}`: {e}"));
            let Statement::For {
                lower,
                upper,
                stride,
                ..
            } = &p.stmts[0]
            else {
                panic!()
            };
            assert_eq!(stride.eval_const(), Some(expected), "`{increment}`");
            assert_eq!(lower, &Expr::Const(0), "`{increment}`");
            assert_eq!(upper, &Expr::Const(99).offset(1), "`{increment}`");
        }
        // A strict `>` bound excludes the bound itself.
        let p = parse_program("double A[100]; for (i = 99; i > 5; i--) A[i] = 0;").unwrap();
        let Statement::For { lower, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(lower, &Expr::Const(5).offset(1));
    }

    #[test]
    fn rejects_direction_mismatches() {
        // An increasing condition with a decreasing increment (and vice
        // versa) would never terminate or never run as written.
        for src in [
            "double A[100]; for (i = 0; i < 100; i--) A[i] = 0;",
            "double A[100]; for (i = 0; i < 100; i -= 2) A[i] = 0;",
            "double A[100]; for (i = 99; i >= 0; i++) A[i] = 0;",
            "double A[100]; for (i = 99; i > 0; i += 2) A[i] = 0;",
        ] {
            let err = parse_program(src).expect_err(src);
            assert!(
                err.message.contains("iterator") || err.message.contains("stride"),
                "{src}: {}",
                err.message
            );
        }
    }

    #[test]
    fn parses_parameter_declarations_and_uses() {
        let src = r#"
            param N, T;
            double A[N][N];
            for (ii = 0; ii < N / T * T; ii += T)
                for (i = ii; i < ii + T; i++)
                    if (i < N)
                        A[i][i] = 0;
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.params, vec!["N", "T"]);
        assert_eq!(p.arrays[0].extents, vec![Expr::iter("N"), Expr::iter("N")]);
        let Statement::For { upper, stride, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(
            upper,
            &Expr::iter("N").div(Expr::iter("T")).prod(Expr::iter("T"))
        );
        assert_eq!(stride, &Expr::iter("T"), "parametric stride");
        // A decreasing parametric stride records the negation structurally.
        let p = parse_program("param T; double A[100]; for (i = 99; i >= 0; i -= T) A[i] = 0;")
            .unwrap();
        let Statement::For { stride, .. } = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(stride, &Expr::iter("T").scale(-1));
    }

    #[test]
    fn rejects_malformed_parameter_programs() {
        // An undeclared name in a stride is not a parameter.
        assert!(parse_program("double A[100]; for (i = 0; i < 100; i += n) A[i] = 0;").is_err());
        // Duplicate parameter declarations.
        let err = parse_program("param N; param N;").expect_err("duplicate param");
        assert!(err.message.contains("declared twice"), "{}", err.message);
        // A loop iterator may not shadow a parameter.
        let err = parse_program("param N; double A[8]; for (N = 0; N < 8; N++) A[N] = 0;")
            .expect_err("shadowing iterator");
        assert!(err.message.contains("shadows"), "{}", err.message);
        // Extents must be constant or parametric, not iterator-dependent.
        let err = parse_program("double A[n]; for (i = 0; i < 4; i++) A[i] = 0;")
            .expect_err("free extent");
        assert!(err.message.contains("extent"), "{}", err.message);
        // Divisions by an iterator (or of an iterator) stay rejected.
        assert!(parse_program("double A[8]; for (i = 0; i < 8; i++) A[i / 2] = 0;").is_err());
        // Literal division by zero is caught eagerly.
        let err = parse_program("param N; double A[N / 0];").expect_err("div by zero");
        assert!(err.message.contains("division by zero"), "{}", err.message);
        // `param` itself cannot be a type-like name.
        assert!(parse_program("param double;").is_err());
    }

    #[test]
    fn preprocessor_and_comments_are_skipped() {
        let src = r#"
            #include <stdio.h>
            /* matrices */
            double A[4]; // data
            for (i = 0; i < 4; i++)
                A[i] = 0; // init
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.arrays.len(), 1);
        assert_eq!(p.stmts.len(), 1);
    }

    /// `depth` nested loops around one assignment (`depth + 1` statements).
    fn nested_loops(depth: usize) -> String {
        let mut src = String::from("double A[4];\n");
        for d in 0..depth {
            src.push_str(&format!("for (i{d} = 0; i{d} < 2; i{d}++)\n"));
        }
        src.push_str("A[0] = 0;");
        src
    }

    #[test]
    fn statement_nesting_is_bounded() {
        let ok = parse_program(&nested_loops(MAX_STATEMENT_DEPTH - 1)).expect("at the limit");
        assert_eq!(ok.stmts.len(), 1);
        for depth in [MAX_STATEMENT_DEPTH, 300, 3_000] {
            let err = parse_program(&nested_loops(depth)).expect_err("too deep");
            assert!(
                err.message.contains("statements nest deeper"),
                "{}",
                err.message
            );
        }
        // Blocks and guards count as nesting too.
        let blocks = format!(
            "double A[4]; {}A[0] = 0;{}",
            "{".repeat(10_000),
            "}".repeat(10_000)
        );
        assert!(parse_program(&blocks).is_err());
    }

    #[test]
    fn expression_nesting_is_bounded() {
        let parens = |depth: usize| {
            format!(
                "double A[4]; A[{}0{}] = 0;",
                "(".repeat(depth),
                ")".repeat(depth)
            )
        };
        let chain = |terms: usize| format!("double A[4]; A[{}] = 0;", vec!["0"; terms].join(" + "));
        assert!(parse_program(&parens(MAX_EXPRESSION_DEPTH)).is_ok());
        assert!(parse_program(&chain(MAX_EXPRESSION_DEPTH)).is_ok());
        let too_deep = [
            parens(MAX_EXPRESSION_DEPTH + 1),
            parens(20_000),
            chain(MAX_EXPRESSION_DEPTH + 1),
            chain(10_000),
            format!("double A[4]; A[{}0] = 0;", "- ".repeat(10_000)),
            format!(
                "double A[4]; for (i = 0; i < {}4; i++) A[i] = 0;",
                "(1 + ".repeat(10_000)
            ),
        ];
        for src in &too_deep {
            let err = parse_program(src).expect_err("too deep");
            assert!(
                err.message.contains("expression nests deeper"),
                "{}",
                err.message
            );
        }
    }
}
