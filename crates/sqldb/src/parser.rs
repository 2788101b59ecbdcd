//! Recursive-descent parser for the supported SQL subset.

use crate::ast::{
    Affinity, BinOp, ColumnDef, Expr, InsertSource, OrderTerm, ResultColumn, SelectCore,
    SelectStmt, Stmt, TableRef, TriggerEvent, UnOp,
};
use crate::error::{SqlError, SqlResult};
use crate::lexer::{lex, Token};
use crate::value::Value;

/// The tallest expression tree the parser builds, like SQLite's
/// `SQLITE_MAX_EXPR_DEPTH`. A tree's height counts both nesting (each
/// parenthesis, function argument or sub-select level) and binary-chain
/// length (`a OR b OR c` is a left-deep tree of height 3), because
/// evaluating, planning and dropping an expression all recurse down it.
/// Taller input is a [`SqlError::Parse`], never a stack overflow: the
/// limit is set so the tallest accepted tree parses, evaluates and drops
/// on a 2 MiB thread in an unoptimized build.
pub const MAX_EXPR_DEPTH: usize = 100;

/// Parses a string containing one or more `;`-separated statements.
pub fn parse_statements(sql: &str) -> SqlResult<Vec<Stmt>> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, height: 0, subselects: true };
    let mut stmts = Vec::new();
    loop {
        while p.eat_token(&Token::Semicolon) {}
        if p.at_end() {
            break;
        }
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parses exactly one statement.
pub fn parse_statement(sql: &str) -> SqlResult<Stmt> {
    let mut stmts = parse_statements(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(SqlError::Parse { message: "empty statement".into() }),
        _ => Err(SqlError::Parse { message: "expected a single statement".into() }),
    }
}

/// Parses exactly one expression over the row it is evaluated on: the
/// form a caller-supplied fragment (a provider selection) must take. A
/// sub-select, the one expression form that reads another relation, is
/// refused, and so is anything after the expression.
pub fn parse_row_expr(sql: &str) -> SqlResult<Expr> {
    let mut p = Parser { tokens: lex(sql)?, pos: 0, depth: 0, height: 0, subselects: false };
    let expr = p.expr()?;
    if !p.at_end() {
        return Err(SqlError::Parse { message: format!("unexpected token {:?}", p.peek()) });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression nesting levels entered so far (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    /// Height of the expression tree parsed last.
    height: usize,
    /// Whether `IN (SELECT ...)` may appear.
    subselects: bool,
}

fn too_deep() -> SqlError {
    SqlError::Parse { message: format!("expression tree deeper than {MAX_EXPR_DEPTH}") }
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.pos + ahead)
    }

    fn next(&mut self) -> SqlResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SqlError::Parse { message: "unexpected end of input".into() })?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse { message: format!("expected {kw}, found {:?}", self.peek()) })
        }
    }

    fn eat_token(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, tok: &Token) -> SqlResult<()> {
        if self.eat_token(tok) {
            Ok(())
        } else {
            Err(SqlError::Parse { message: format!("expected {tok:?}, found {:?}", self.peek()) })
        }
    }

    fn identifier(&mut self) -> SqlResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            Token::QuotedIdent(s) => Ok(s),
            other => {
                Err(SqlError::Parse { message: format!("expected identifier, found {other:?}") })
            }
        }
    }

    fn peek_is_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn statement(&mut self) -> SqlResult<Stmt> {
        if self.peek_is_kw("select") {
            return Ok(Stmt::Select(self.select_stmt()?));
        }
        if self.eat_kw("create") {
            return self.create_stmt();
        }
        if self.eat_kw("drop") {
            return self.drop_stmt();
        }
        if self.eat_kw("insert") {
            return self.insert_stmt();
        }
        if self.eat_kw("update") {
            return self.update_stmt();
        }
        if self.eat_kw("delete") {
            return self.delete_stmt();
        }
        if self.eat_kw("begin") {
            let _ = self.eat_kw("transaction");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("commit") || self.eat_kw("end") {
            let _ = self.eat_kw("transaction");
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("rollback") {
            let _ = self.eat_kw("transaction");
            return Ok(Stmt::Rollback);
        }
        if self.eat_kw("alter") {
            self.expect_kw("table")?;
            let table = self.identifier()?;
            self.expect_kw("rowid")?;
            self.expect_kw("start")?;
            let start = match self.next()? {
                Token::Literal(Value::Integer(n)) => n,
                other => {
                    return Err(SqlError::Parse {
                        message: format!("expected integer rowid start, found {other:?}"),
                    })
                }
            };
            return Ok(Stmt::AlterRowidStart { table, start });
        }
        Err(SqlError::Parse { message: format!("unexpected token {:?}", self.peek()) })
    }

    fn if_not_exists(&mut self) -> SqlResult<bool> {
        if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn if_exists(&mut self) -> bool {
        if self.eat_kw("if") {
            let _ = self.eat_kw("exists");
            true
        } else {
            false
        }
    }

    fn create_stmt(&mut self) -> SqlResult<Stmt> {
        if self.eat_kw("table") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.identifier()?;
            self.expect_token(&Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.column_def()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            Ok(Stmt::CreateTable { name, if_not_exists, columns })
        } else if self.eat_kw("view") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.identifier()?;
            self.expect_kw("as")?;
            let select = self.select_stmt()?;
            Ok(Stmt::CreateView { name, if_not_exists, select })
        } else if self.eat_kw("trigger") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.identifier()?;
            self.expect_kw("instead")?;
            self.expect_kw("of")?;
            let event = if self.eat_kw("insert") {
                TriggerEvent::Insert
            } else if self.eat_kw("update") {
                TriggerEvent::Update
            } else if self.eat_kw("delete") {
                TriggerEvent::Delete
            } else {
                return Err(SqlError::Parse {
                    message: "expected INSERT, UPDATE or DELETE".into(),
                });
            };
            self.expect_kw("on")?;
            let on = self.identifier()?;
            self.expect_kw("begin")?;
            let mut body = Vec::new();
            loop {
                if self.eat_kw("end") {
                    break;
                }
                let stmt = self.statement()?;
                self.expect_token(&Token::Semicolon)?;
                body.push(stmt);
            }
            Ok(Stmt::CreateTrigger { name, if_not_exists, event, on, body })
        } else if self.peek_is_kw("unique") || self.peek_is_kw("index") {
            let unique = self.eat_kw("unique");
            self.expect_kw("index")?;
            let if_not_exists = self.if_not_exists()?;
            let name = self.identifier()?;
            self.expect_kw("on")?;
            let table = self.identifier()?;
            self.expect_token(&Token::LParen)?;
            let column = self.identifier()?;
            if self.eat_token(&Token::Comma) {
                return Err(SqlError::Parse {
                    message: "multi-column indexes are not supported".into(),
                });
            }
            self.expect_token(&Token::RParen)?;
            Ok(Stmt::CreateIndex { name, if_not_exists, unique, table, column })
        } else {
            Err(SqlError::Parse { message: "expected TABLE, VIEW, TRIGGER or INDEX".into() })
        }
    }

    fn drop_stmt(&mut self) -> SqlResult<Stmt> {
        if self.eat_kw("table") {
            let if_exists = self.if_exists();
            Ok(Stmt::DropTable { name: self.identifier()?, if_exists })
        } else if self.eat_kw("view") {
            let if_exists = self.if_exists();
            Ok(Stmt::DropView { name: self.identifier()?, if_exists })
        } else if self.eat_kw("trigger") {
            let if_exists = self.if_exists();
            Ok(Stmt::DropTrigger { name: self.identifier()?, if_exists })
        } else if self.eat_kw("index") {
            let if_exists = self.if_exists();
            Ok(Stmt::DropIndex { name: self.identifier()?, if_exists })
        } else {
            Err(SqlError::Parse { message: "expected TABLE, VIEW, TRIGGER or INDEX".into() })
        }
    }

    fn column_def(&mut self) -> SqlResult<ColumnDef> {
        let name = self.identifier()?;
        // Optional type name: one or more identifiers, optionally followed
        // by a parenthesized size like VARCHAR(40).
        let mut type_name = String::new();
        while let Some(Token::Ident(word)) = self.peek() {
            let upper = word.to_ascii_uppercase();
            if matches!(upper.as_str(), "PRIMARY" | "NOT" | "DEFAULT" | "UNIQUE") {
                break;
            }
            type_name.push_str(word);
            self.pos += 1;
        }
        if self.eat_token(&Token::LParen) {
            // Consume size arguments.
            while !self.eat_token(&Token::RParen) {
                self.next()?;
            }
        }
        let mut primary_key = false;
        let mut not_null = false;
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                let _ = self.eat_kw("autoincrement");
                primary_key = true;
            } else if self.eat_kw("not") {
                self.expect_kw("null")?;
                not_null = true;
            } else if self.eat_kw("unique") {
                // Accepted and ignored (single-column pk is the only
                // uniqueness the engine enforces).
            } else if self.eat_kw("default") {
                // Accept a single literal / signed literal and ignore it.
                let _ = self.eat_token(&Token::Minus);
                self.next()?;
            } else {
                break;
            }
        }
        Ok(ColumnDef {
            name,
            affinity: Affinity::from_type_name(&type_name),
            primary_key,
            not_null,
        })
    }

    fn insert_stmt(&mut self) -> SqlResult<Stmt> {
        let or_replace = if self.eat_kw("or") {
            self.expect_kw("replace")?;
            true
        } else {
            false
        };
        self.expect_kw("into")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.eat_token(&Token::LParen) {
            loop {
                columns.push(self.identifier()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        let source = if self.eat_kw("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_token(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
                rows.push(row);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.peek_is_kw("select") {
            InsertSource::Select(Box::new(self.select_stmt()?))
        } else {
            return Err(SqlError::Parse { message: "expected VALUES or SELECT".into() });
        };
        Ok(Stmt::Insert { table, columns, source, or_replace })
    }

    fn update_stmt(&mut self) -> SqlResult<Stmt> {
        let table = self.identifier()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_token(&Token::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update { table, sets, where_clause })
    }

    fn delete_stmt(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("from")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete { table, where_clause })
    }

    fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        let mut cores = vec![self.select_core()?];
        while self.peek_is_kw("union") {
            // Only UNION ALL is supported (what COW views use).
            self.pos += 1;
            self.expect_kw("all")?;
            cores.push(self.select_core()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("desc") {
                    false
                } else {
                    let _ = self.eat_kw("asc");
                    true
                };
                order_by.push(OrderTerm { expr, ascending });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let (limit, offset) = if self.eat_kw("limit") {
            let first = self.expr()?;
            if self.eat_kw("offset") {
                (Some(first), Some(self.expr()?))
            } else if self.eat_token(&Token::Comma) {
                // SQLite's `LIMIT offset, count` form.
                let count = self.expr()?;
                (Some(count), Some(first))
            } else {
                (Some(first), None)
            }
        } else {
            (None, None)
        };
        Ok(SelectStmt { cores, order_by, limit, offset })
    }

    fn select_core(&mut self) -> SqlResult<SelectCore> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        if !distinct {
            let _ = self.eat_kw("all");
        }
        let mut columns = Vec::new();
        loop {
            columns.push(self.result_column()?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                let name = self.identifier()?;
                let alias = self.optional_alias()?;
                from.push(TableRef { name, alias });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        Ok(SelectCore { distinct, columns, from, where_clause, group_by, having })
    }

    /// Parses an optional `AS alias` or bare-identifier alias.
    fn optional_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("as") || matches!(self.peek(), Some(Token::Ident(w)) if !is_clause_kw(w)) {
            Ok(Some(self.identifier()?))
        } else {
            Ok(None)
        }
    }

    fn result_column(&mut self) -> SqlResult<ResultColumn> {
        if self.eat_token(&Token::Star) {
            return Ok(ResultColumn::Star);
        }
        // `table.*`
        if let (Some(Token::Ident(t)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let t = t.clone();
            self.pos += 3;
            return Ok(ResultColumn::TableStar(t));
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(ResultColumn::Expr { expr, alias })
    }

    /// Entry point for expressions: lowest precedence is OR. Parses one
    /// nesting level below the current one; on return `self.height`
    /// holds the parsed tree's height.
    fn expr(&mut self) -> SqlResult<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        let out = self.or_expr();
        self.depth -= 1;
        out
    }

    /// Records the height of the subtree just built at the current
    /// nesting level, refusing one past [`MAX_EXPR_DEPTH`].
    fn set_height(&mut self, height: usize) -> SqlResult<()> {
        if self.depth - 1 + height > MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.height = height;
        Ok(())
    }

    /// `lhs op rhs`, where `lh` is the height of `lhs` and `self.height`
    /// that of `rhs`.
    fn binary(&mut self, op: BinOp, lhs: Expr, lh: usize, rhs: Expr) -> SqlResult<Expr> {
        self.set_height(lh.max(self.height) + 1)?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn or_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let lh = self.height;
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, lh, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let lh = self.height;
            let rhs = self.not_expr()?;
            lhs = self.binary(BinOp::And, lhs, lh, rhs)?;
        }
        Ok(lhs)
    }

    /// `NOT`* comparison, counted in a loop so a long prefix run cannot
    /// recurse; the common `NOT`-less case stays a tail call.
    fn not_expr(&mut self) -> SqlResult<Expr> {
        if !self.peek_is_kw("not") {
            return self.comparison();
        }
        let mut nots = 0;
        while self.eat_kw("not") {
            nots += 1;
        }
        let mut e = self.comparison()?;
        self.set_height(self.height + nots)?;
        for _ in 0..nots {
            e = Expr::Unary(UnOp::Not, Box::new(e));
        }
        Ok(e)
    }

    fn comparison(&mut self) -> SqlResult<Expr> {
        let lhs = self.additive()?;
        self.comparison_rest(lhs)
    }

    /// The operator half of [`Parser::comparison`], split out so nesting
    /// recursion (which runs inside `additive`) carries only a small frame.
    fn comparison_rest(&mut self, lhs: Expr) -> SqlResult<Expr> {
        let lh = self.height;
        // IS [NOT] NULL.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            self.set_height(lh + 1)?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        // [NOT] IN / LIKE / BETWEEN.
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect_token(&Token::LParen)?;
            if self.peek_is_kw("select") {
                if !self.subselects {
                    return Err(SqlError::Parse { message: "sub-select not allowed here".into() });
                }
                let select = self.select_stmt()?;
                self.expect_token(&Token::RParen)?;
                self.set_height(lh + 1)?;
                return Ok(Expr::InSelect {
                    expr: Box::new(lhs),
                    select: Box::new(select),
                    negated,
                });
            }
            let mut list = Vec::new();
            let mut h = lh;
            if !self.eat_token(&Token::RParen) {
                loop {
                    list.push(self.expr()?);
                    h = h.max(self.height);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(&Token::RParen)?;
            }
            self.set_height(h + 1)?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            self.set_height(lh.max(self.height) + 1)?;
            return Ok(Expr::Like { expr: Box::new(lhs), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("between") {
            let low = self.additive()?;
            let loh = self.height;
            self.expect_kw("and")?;
            let high = self.additive()?;
            self.set_height(lh.max(loh).max(self.height) + 1)?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse {
                message: "expected IN, LIKE or BETWEEN after NOT".into(),
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return self.binary(op, lhs, lh, rhs);
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                Some(Token::Concat) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let lh = self.height;
            let rhs = self.multiplicative()?;
            lhs = self.binary(op, lhs, lh, rhs)?;
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> SqlResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let lh = self.height;
            let rhs = self.unary()?;
            lhs = self.binary(op, lhs, lh, rhs)?;
        }
        Ok(lhs)
    }

    /// Prefix `-`/`+` run, counted in a loop like `NOT` (`+` is a no-op).
    fn unary(&mut self) -> SqlResult<Expr> {
        if !matches!(self.peek(), Some(Token::Minus | Token::Plus)) {
            return self.primary();
        }
        let mut negs = 0;
        loop {
            if self.eat_token(&Token::Minus) {
                negs += 1;
            } else if !self.eat_token(&Token::Plus) {
                break;
            }
        }
        let mut e = self.primary()?;
        self.set_height(self.height + negs)?;
        for _ in 0..negs {
            e = Expr::Unary(UnOp::Neg, Box::new(e));
        }
        Ok(e)
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.peek() {
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(_)) if self.peek_at(1) == Some(&Token::LParen) => self.call(),
            _ => {
                self.height = 1;
                self.atom()
            }
        }
    }

    /// A function call: `name(*)` or `name(arg, ...)`.
    fn call(&mut self) -> SqlResult<Expr> {
        let name = self.identifier()?.to_ascii_lowercase();
        self.expect_token(&Token::LParen)?;
        if self.eat_token(&Token::Star) {
            self.expect_token(&Token::RParen)?;
            self.height = 1;
            return Ok(Expr::Call { name, args: Vec::new(), star: true });
        }
        let mut args = Vec::new();
        let mut h = 0;
        if !self.eat_token(&Token::RParen) {
            loop {
                args.push(self.expr()?);
                h = h.max(self.height);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        self.set_height(h + 1)?;
        Ok(Expr::Call { name, args, star: false })
    }

    /// A literal, parameter or column (height 1).
    fn atom(&mut self) -> SqlResult<Expr> {
        match self.next()? {
            Token::Literal(v) => Ok(Expr::Literal(v)),
            Token::Param(i) => Ok(Expr::Param(i)),
            Token::Ident(first) => {
                if first.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if first.eq_ignore_ascii_case("true") {
                    return Ok(Expr::Literal(Value::Integer(1)));
                }
                if first.eq_ignore_ascii_case("false") {
                    return Ok(Expr::Literal(Value::Integer(0)));
                }
                // Qualified column?
                if self.eat_token(&Token::Dot) {
                    let name = self.identifier()?;
                    return Ok(Expr::Column { table: Some(first), name });
                }
                Ok(Expr::Column { table: None, name: first })
            }
            Token::QuotedIdent(name) => {
                if self.eat_token(&Token::Dot) {
                    let col = self.identifier()?;
                    return Ok(Expr::Column { table: Some(name), name: col });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(SqlError::Parse { message: format!("unexpected token {other:?}") }),
        }
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_kw(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "ORDER"
            | "LIMIT"
            | "UNION"
            | "GROUP"
            | "ON"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "SET"
            | "VALUES"
            | "BEGIN"
            | "END"
            | "IN"
            | "IS"
            | "LIKE"
            | "BETWEEN"
            | "ASC"
            | "DESC"
            | "HAVING"
            | "OFFSET"
            | "ALL"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let stmt = parse_statement(
            "CREATE TABLE IF NOT EXISTS words (_id INTEGER PRIMARY KEY, word TEXT NOT NULL, frequency INTEGER)",
        )
        .unwrap();
        match stmt {
            Stmt::CreateTable { name, if_not_exists, columns } => {
                assert_eq!(name, "words");
                assert!(if_not_exists);
                assert_eq!(columns.len(), 3);
                assert!(columns[0].primary_key);
                assert!(columns[1].not_null);
                assert_eq!(columns[1].affinity, Affinity::Text);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_paper_cow_view() {
        // The exact view shape from Figure 6 of the paper.
        let stmt = parse_statement(
            "CREATE VIEW tab1_view_A AS \
             SELECT _id,data FROM tab1 WHERE _id NOT IN (SELECT _id FROM tab1_delta_A) \
             UNION ALL SELECT _id,data FROM tab1_delta_A WHERE _whiteout=0",
        )
        .unwrap();
        match stmt {
            Stmt::CreateView { name, select, .. } => {
                assert_eq!(name, "tab1_view_A");
                assert_eq!(select.cores.len(), 2);
                let first = &select.cores[0];
                assert!(matches!(first.where_clause, Some(Expr::InSelect { negated: true, .. })));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_paper_trigger() {
        let stmt = parse_statement(
            "CREATE TRIGGER tab1_A_update INSTEAD OF UPDATE ON tab1_view_A BEGIN \
             INSERT OR REPLACE INTO tab1_delta_A (_id,data,_whiteout) \
             VALUES (NEW._id, NEW.data, 0); END",
        )
        .unwrap();
        match stmt {
            Stmt::CreateTrigger { event, on, body, .. } => {
                assert_eq!(event, TriggerEvent::Update);
                assert_eq!(on, "tab1_view_A");
                assert_eq!(body.len(), 1);
                match &body[0] {
                    Stmt::Insert { or_replace, columns, .. } => {
                        assert!(*or_replace);
                        assert_eq!(columns, &["_id", "data", "_whiteout"]);
                    }
                    other => panic!("wrong body: {other:?}"),
                }
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_select_with_everything() {
        let stmt = parse_statement(
            "SELECT w.word AS w2, count(*) FROM words w \
             WHERE frequency >= 10 AND word LIKE 'a%' ORDER BY word DESC LIMIT 5",
        )
        .unwrap();
        match stmt {
            Stmt::Select(s) => {
                assert_eq!(s.cores[0].columns.len(), 2);
                assert_eq!(s.cores[0].from[0].binding(), "w");
                assert_eq!(s.order_by.len(), 1);
                assert!(!s.order_by[0].ascending);
                assert!(s.limit.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_update_delete() {
        let u = parse_statement("UPDATE t SET a = a + 1, b = ? WHERE _id = 3").unwrap();
        assert!(matches!(u, Stmt::Update { ref sets, .. } if sets.len() == 2));
        let d = parse_statement("DELETE FROM t").unwrap();
        assert!(matches!(d, Stmt::Delete { where_clause: None, .. }));
    }

    #[test]
    fn parses_insert_select() {
        let stmt = parse_statement("INSERT INTO dst (a, b) SELECT a, b FROM src").unwrap();
        assert!(matches!(stmt, Stmt::Insert { source: InsertSource::Select(_), .. }));
    }

    #[test]
    fn parses_multiple_statements() {
        let stmts =
            parse_statements("CREATE TABLE t (_id INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);")
                .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn operator_precedence() {
        let stmt = parse_statement("SELECT 1 + 2 * 3").unwrap();
        match stmt {
            Stmt::Select(s) => match &s.cores[0].columns[0] {
                ResultColumn::Expr { expr: Expr::Binary(BinOp::Add, _, rhs), .. } => {
                    assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("wrong parse: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn not_requires_operator() {
        assert!(parse_statement("SELECT a NOT 5").is_err());
    }

    #[test]
    fn between_and_in_list() {
        let stmt =
            parse_statement("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1,2,3)").unwrap();
        match stmt {
            Stmt::Select(s) => {
                let w = s.cores[0].where_clause.as_ref().unwrap();
                assert_eq!(w.conjuncts().len(), 2);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn table_star_and_aliases() {
        let stmt = parse_statement("SELECT t.*, u.x FROM t, u WHERE t.id = u.tid").unwrap();
        match stmt {
            Stmt::Select(s) => {
                assert!(
                    matches!(s.cores[0].columns[0], ResultColumn::TableStar(ref n) if n == "t")
                );
                assert_eq!(s.cores[0].from.len(), 2);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn rejects_plain_union() {
        assert!(parse_statement("SELECT 1 UNION SELECT 2").is_err());
    }

    #[test]
    fn parses_create_and_drop_index() {
        let stmt = parse_statement("CREATE INDEX IF NOT EXISTS idx_word ON words(word)").unwrap();
        assert_eq!(
            stmt,
            Stmt::CreateIndex {
                name: "idx_word".into(),
                if_not_exists: true,
                unique: false,
                table: "words".into(),
                column: "word".into(),
            }
        );
        let stmt = parse_statement("CREATE UNIQUE INDEX u_uri ON downloads (uri)").unwrap();
        assert!(matches!(stmt, Stmt::CreateIndex { unique: true, .. }));
        let stmt = parse_statement("DROP INDEX IF EXISTS idx_word").unwrap();
        assert_eq!(stmt, Stmt::DropIndex { name: "idx_word".into(), if_exists: true });
        // Single-column only.
        assert!(parse_statement("CREATE INDEX ix ON t(a, b)").is_err());
    }
}
