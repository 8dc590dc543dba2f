//! Recursive-descent parser for the `SELECT` subset the plan model covers.
//!
//! Grammar (informally; `[]` optional, `{}` repeated):
//!
//! ```text
//! select    := SELECT [DISTINCT|ALL] items FROM froms [WHERE conj]
//!              [GROUP BY cols] [ORDER BY cols] [limit] [;]
//! items     := item {, item}
//! item      := * | qualifier.* | agg | colref [AS ident]
//! agg       := (COUNT|SUM|AVG|MIN|MAX) ( * | colref )
//! froms     := from {(, | [INNER|CROSS] JOIN) from [ON cond]}
//! from      := table [AS] [alias]
//! conj      := cond {AND cond}
//! cond      := ( conj ) | operand (op operand | BETWEEN lit AND lit
//!              | IN ( lit {, lit} ) | LIKE lit)
//! operand   := colref | lit
//! lit       := number | string | param | CAST ( lit AS type )
//!              | lit :: type | (DATE|TIME|TIMESTAMP) string
//! limit     := LIMIT number | FETCH FIRST number ROW[S] ONLY
//! ```
//!
//! Constructs outside the subset (outer joins, `OR`, `HAVING`, subqueries,
//! `NOT`, `IS NULL`, …) produce a typed [`ParseError::Unsupported`] with
//! the span of the offending construct — a parse front-end for a predictor
//! must *reject* what it cannot model, never mis-model it silently.

use std::borrow::Cow;

use crate::ast::{ColumnRef, Condition, FromItem, Literal, SelectItem, SelectStmt};
use crate::dialect::Dialect;
use crate::error::{ParseError, Span, SqlResult};
use crate::token::{tokenize, Token, TokenKind};
use wmp_plan::query::AggFunc;

/// Parses one `SELECT` statement under `dialect`'s lexical rules.
///
/// # Errors
/// Returns a span-carrying [`ParseError`]; never panics on any input.
pub fn parse<'a>(sql: &'a str, dialect: &dyn Dialect) -> SqlResult<SelectStmt<'a>> {
    let tokens = tokenize(sql, dialect)?;
    Parser { tokens, pos: 0, end: sql.len(), dialect }.select()
}

struct Parser<'a, 'd> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    end: usize,
    dialect: &'d dyn Dialect,
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn end_span(&self) -> Span {
        Span::at(self.end)
    }

    fn unexpected(&self, expected: &'static str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::UnexpectedToken {
                expected,
                found: t.describe(self.dialect),
                span: t.span,
            },
            None => ParseError::UnexpectedEnd { expected, span: self.end_span() },
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw))
        }
    }

    fn eat_symbol(&mut self, sym: char) -> bool {
        if matches!(self.peek(), Some(Token { kind: TokenKind::Symbol(c), .. }) if *c == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: char, expected: &'static str) -> SqlResult<Span> {
        match self.peek() {
            Some(Token { kind: TokenKind::Symbol(c), span }) if *c == sym => {
                let span = *span;
                self.pos += 1;
                Ok(span)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    /// A word token used as an identifier (keywords are allowed — context
    /// decides; `SELECT count FROM counts` is legal SQL). An unquoted word
    /// is folded under the dialect; either way the name borrows the
    /// statement text unless folding or unescaping changed it.
    fn ident(&mut self, expected: &'static str) -> SqlResult<(Cow<'a, str>, Span)> {
        let Some(Token { kind: TokenKind::Word { text, quoted }, span }) = self.peek() else {
            return Err(self.unexpected(expected));
        };
        let name = match text {
            Cow::Borrowed(word) if !quoted => self.dialect.fold_ident(word),
            // Copies a borrowed name; owned text is a quoted identifier that
            // had doubled quotes to unescape.
            text => text.clone(),
        };
        let span = *span;
        self.pos += 1;
        Ok((name, span))
    }

    /// Consumes a word whose spelling does not matter (an output name, a
    /// type name) and returns its span.
    fn skip_word(&mut self, expected: &'static str) -> SqlResult<Span> {
        match self.peek() {
            Some(Token { kind: TokenKind::Word { .. }, span }) => {
                let span = *span;
                self.pos += 1;
                Ok(span)
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    // ---- statement ------------------------------------------------------

    fn select(mut self) -> SqlResult<SelectStmt<'a>> {
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStmt { distinct: self.eat_kw("DISTINCT"), ..Default::default() };
        if !stmt.distinct {
            self.eat_kw("ALL"); // explicit ALL is the default; accept and drop
        }
        stmt.items = self.select_items()?;
        self.expect_kw("FROM")?;
        self.parse_from_list(&mut stmt)?;
        if self.eat_kw("WHERE") {
            stmt.conditions.reserve(CONJUNCTS);
            self.conjunction(&mut stmt.conditions)?;
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            stmt.group_by = self.column_list()?;
        }
        if let Some(t) = self.peek() {
            if t.is_kw("HAVING") {
                return Err(ParseError::Unsupported { what: "HAVING clause", span: t.span });
            }
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            stmt.order_by = self.column_list_with_direction()?;
        }
        stmt.limit = self.limit()?;
        if let Some(t) = self.peek() {
            if t.is_kw("OFFSET") {
                return Err(ParseError::Unsupported { what: "OFFSET clause", span: t.span });
            }
        }
        self.eat_symbol(';');
        if let Some(t) = self.peek() {
            return Err(ParseError::TrailingInput { span: t.span });
        }
        Ok(stmt)
    }

    // ---- SELECT list ----------------------------------------------------

    fn select_items(&mut self) -> SqlResult<Vec<SelectItem<'a>>> {
        let mut items = list(self.select_item()?);
        while self.eat_symbol(',') {
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> SqlResult<SelectItem<'a>> {
        if let Some(Token { kind: TokenKind::Symbol('*'), span }) = self.peek() {
            let span = *span;
            self.pos += 1;
            return Ok(SelectItem::Star(span));
        }
        // An aggregate call is a word immediately followed by `(`.
        if let (Some(Token { kind: TokenKind::Word { text, quoted: false }, span }), Some(next)) =
            (self.peek(), self.tokens.get(self.pos + 1))
        {
            if matches!(next.kind, TokenKind::Symbol('(')) {
                if let Some(func) = agg_func(text) {
                    let start = *span;
                    self.pos += 2; // word + (
                    return self.aggregate(func, start);
                }
            }
        }
        let (first, first_span) = self.ident("a select item")?;
        if self.eat_symbol('.') {
            if let Some(Token { kind: TokenKind::Symbol('*'), span }) = self.peek() {
                let span = first_span.merge(*span);
                self.pos += 1;
                return Ok(SelectItem::QualifiedStar { qualifier: first, span });
            }
            let (column, col_span) = self.ident("a column after '.'")?;
            let item = SelectItem::Column(ColumnRef {
                qualifier: Some(first),
                column,
                span: first_span.merge(col_span),
            });
            self.select_item_alias()?;
            return Ok(item);
        }
        self.select_item_alias()?;
        Ok(SelectItem::Column(ColumnRef { qualifier: None, column: first, span: first_span }))
    }

    /// Accepts and discards an optional `AS output_name` — `QuerySpec` has
    /// no projection aliases, and [`crate::render`] never emits them.
    fn select_item_alias(&mut self) -> SqlResult<()> {
        if self.eat_kw("AS") {
            self.skip_word("an output name after AS")?;
        }
        Ok(())
    }

    fn aggregate(&mut self, func: AggFunc, start: Span) -> SqlResult<SelectItem<'a>> {
        if let Some(t) = self.peek() {
            if t.is_kw("DISTINCT") {
                return Err(ParseError::Unsupported {
                    what: "DISTINCT inside an aggregate",
                    span: t.span,
                });
            }
        }
        let arg = if let Some(Token { kind: TokenKind::Symbol('*'), span }) = self.peek() {
            if func != AggFunc::Count {
                return Err(ParseError::UnexpectedToken {
                    expected: "a column argument",
                    found: "*".into(),
                    span: *span,
                });
            }
            self.pos += 1;
            None
        } else {
            Some(self.column_ref()?)
        };
        let close = self.expect_symbol(')', "')' closing the aggregate")?;
        let item = SelectItem::Aggregate { func, arg, span: start.merge(close) };
        self.select_item_alias()?;
        Ok(item)
    }

    // ---- FROM -----------------------------------------------------------

    fn parse_from_list(&mut self, stmt: &mut SelectStmt<'a>) -> SqlResult<()> {
        stmt.from = list(self.parse_from_item()?);
        loop {
            if self.eat_symbol(',') {
                let item = self.parse_from_item()?;
                stmt.from.push(item);
                continue;
            }
            if let Some(t) = self.peek() {
                if t.is_kw("LEFT") || t.is_kw("RIGHT") || t.is_kw("FULL") || t.is_kw("OUTER") {
                    return Err(ParseError::Unsupported { what: "outer join", span: t.span });
                }
            }
            let explicit_inner = self.eat_kw("INNER");
            let cross = !explicit_inner && self.eat_kw("CROSS");
            if self.eat_kw("JOIN") {
                let item = self.parse_from_item()?;
                stmt.from.push(item);
                if self.eat_kw("ON") {
                    if cross {
                        // CROSS JOIN takes no ON; treat as a plain condition
                        // grammar error at the ON keyword.
                        let span = self.tokens[self.pos - 1].span;
                        return Err(ParseError::UnexpectedToken {
                            expected: "',' or JOIN",
                            found: "ON".into(),
                            span,
                        });
                    }
                    self.condition(&mut stmt.conditions)?;
                }
                continue;
            }
            if explicit_inner || cross {
                return Err(self.unexpected("JOIN"));
            }
            return Ok(());
        }
    }

    fn parse_from_item(&mut self) -> SqlResult<FromItem<'a>> {
        if let Some(Token { kind: TokenKind::Symbol('('), span }) = self.peek() {
            return Err(ParseError::Unsupported {
                what: "derived table (subquery in FROM)",
                span: *span,
            });
        }
        let (table, table_span) = self.ident("a table name")?;
        let mut span = table_span;
        let alias = if self.eat_kw("AS") {
            let (a, s) = self.ident("an alias after AS")?;
            span = span.merge(s);
            a
        } else if let Some(Token { kind: TokenKind::Word { .. }, .. }) = self.peek() {
            // Bare alias — but clause keywords terminate the FROM item.
            let t = self.peek().expect("peeked");
            if FROM_TERMINATORS.iter().any(|k| t.is_kw(k)) {
                table.clone()
            } else {
                let (a, s) = self.ident("an alias")?;
                span = span.merge(s);
                a
            }
        } else {
            table.clone()
        };
        Ok(FromItem { table, alias, span })
    }

    // ---- WHERE ----------------------------------------------------------

    fn conjunction(&mut self, out: &mut Vec<Condition<'a>>) -> SqlResult<()> {
        self.condition(out)?;
        loop {
            if let Some(t) = self.peek() {
                if t.is_kw("OR") {
                    return Err(ParseError::Unsupported { what: "OR disjunction", span: t.span });
                }
            }
            if self.eat_kw("AND") {
                self.condition(out)?;
            } else {
                return Ok(());
            }
        }
    }

    fn condition(&mut self, out: &mut Vec<Condition<'a>>) -> SqlResult<()> {
        // Parenthesized group: splice its conjuncts into the flat list.
        if self.eat_symbol('(') {
            self.conjunction(out)?;
            self.expect_symbol(')', "')' closing the condition group")?;
            return Ok(());
        }
        if let Some(t) = self.peek() {
            if t.is_kw("NOT") {
                return Err(ParseError::Unsupported { what: "NOT", span: t.span });
            }
            if t.is_kw("EXISTS") {
                return Err(ParseError::Unsupported { what: "EXISTS subquery", span: t.span });
            }
        }
        match self.operand()? {
            Operand::Column(col) => self.condition_after_column(col, out),
            Operand::Literal(lit) => {
                // `literal op column`: normalize by mirroring the operator.
                let op = self.comparison_op()?;
                let right = self.operand()?;
                match right {
                    Operand::Column(col) => {
                        let span = lit.span.merge(col.span);
                        let mirrored = match op {
                            "<" => ">",
                            "<=" => ">=",
                            ">" => "<",
                            ">=" => "<=",
                            other => other,
                        };
                        out.push(Condition::Cmp { col, op: mirrored, literal: lit, span });
                        Ok(())
                    }
                    Operand::Literal(other) => Err(ParseError::Unsupported {
                        what: "literal-to-literal comparison",
                        span: lit.span.merge(other.span),
                    }),
                }
            }
        }
    }

    fn condition_after_column(
        &mut self,
        col: ColumnRef<'a>,
        out: &mut Vec<Condition<'a>>,
    ) -> SqlResult<()> {
        if let Some(t) = self.peek() {
            if t.is_kw("IS") {
                return Err(ParseError::Unsupported { what: "IS [NOT] NULL", span: t.span });
            }
            if t.is_kw("BETWEEN") {
                self.pos += 1;
                let lo = self.literal()?;
                self.expect_kw("AND")?;
                let hi = self.literal()?;
                let span = col.span.merge(hi.span);
                out.push(Condition::Between { col, lo, hi, span });
                return Ok(());
            }
            if t.is_kw("IN") {
                self.pos += 1;
                self.expect_symbol('(', "'(' opening the IN list")?;
                if let Some(t) = self.peek() {
                    if t.is_kw("SELECT") {
                        return Err(ParseError::Unsupported { what: "IN subquery", span: t.span });
                    }
                }
                let mut items = list(self.literal()?);
                while self.eat_symbol(',') {
                    items.push(self.literal()?);
                }
                let close = self.expect_symbol(')', "')' closing the IN list")?;
                let span = col.span.merge(close);
                out.push(Condition::InList { col, items, span });
                return Ok(());
            }
            if t.is_kw("LIKE") {
                self.pos += 1;
                let pattern = self.literal()?;
                let span = col.span.merge(pattern.span);
                out.push(Condition::Like { col, pattern, span });
                return Ok(());
            }
        }
        let op = self.comparison_op()?;
        match self.operand()? {
            Operand::Column(right) => {
                let span = col.span.merge(right.span);
                if op != "=" {
                    return Err(ParseError::Unsupported {
                        what: "non-equi column-to-column comparison",
                        span,
                    });
                }
                out.push(Condition::Join { left: col, right, span });
            }
            Operand::Literal(literal) => {
                if op == "<>" || op == "!=" {
                    return Err(ParseError::Unsupported {
                        what: "not-equal predicate",
                        span: col.span.merge(literal.span),
                    });
                }
                let span = col.span.merge(literal.span);
                out.push(Condition::Cmp { col, op, literal, span });
            }
        }
        Ok(())
    }

    fn comparison_op(&mut self) -> SqlResult<&'static str> {
        match self.peek() {
            Some(Token { kind: TokenKind::Op(op), .. }) => {
                let op = *op;
                self.pos += 1;
                Ok(op)
            }
            _ => Err(self.unexpected("a comparison operator")),
        }
    }

    fn operand(&mut self) -> SqlResult<Operand<'a>> {
        match self.peek() {
            Some(Token { kind: TokenKind::Word { text, quoted }, .. }) => {
                // CAST(...) and typed literals start with a word too.
                if !quoted {
                    if text.eq_ignore_ascii_case("CAST") {
                        return Ok(Operand::Literal(self.literal()?));
                    }
                    if is_type_literal_prefix(text)
                        && matches!(
                            self.tokens.get(self.pos + 1).map(|t| &t.kind),
                            Some(TokenKind::StringLit(_))
                        )
                    {
                        return Ok(Operand::Literal(self.literal()?));
                    }
                }
                Ok(Operand::Column(self.column_ref()?))
            }
            Some(Token {
                kind: TokenKind::Number(_) | TokenKind::StringLit(_) | TokenKind::Param(_),
                ..
            }) => Ok(Operand::Literal(self.literal()?)),
            _ => Err(self.unexpected("a column or literal")),
        }
    }

    /// Parses a literal, unwrapping `CAST(lit AS type)`, `lit::type`, and
    /// `DATE '…'`-style typed literals down to the inner spelling.
    fn literal(&mut self) -> SqlResult<Literal<'a>> {
        let Some(&Token { ref kind, span }) = self.peek() else {
            return Err(self.unexpected("a literal"));
        };
        let lit = match *kind {
            TokenKind::Number(text) | TokenKind::StringLit(text) | TokenKind::Param(text) => {
                self.pos += 1;
                Literal { text, span }
            }
            TokenKind::Word { ref text, quoted: false } if text.eq_ignore_ascii_case("CAST") => {
                self.pos += 1;
                self.expect_symbol('(', "'(' after CAST")?;
                let inner = self.literal()?;
                self.expect_kw("AS")?;
                self.type_name()?;
                let close = self.expect_symbol(')', "')' closing CAST")?;
                Literal { text: inner.text, span: span.merge(close) }
            }
            TokenKind::Word { ref text, quoted: false } if is_type_literal_prefix(text) => {
                self.pos += 1;
                match self.peek() {
                    Some(&Token { kind: TokenKind::StringLit(text), span: lit_span }) => {
                        self.pos += 1;
                        Literal { text, span: span.merge(lit_span) }
                    }
                    _ => return Err(self.unexpected("a string literal after the type keyword")),
                }
            }
            _ => return Err(self.unexpected("a literal")),
        };
        // Postgres shorthand cast chain: `'x'::date::text` is legal.
        let mut lit = lit;
        while matches!(self.peek(), Some(Token { kind: TokenKind::DoubleColon, .. })) {
            self.pos += 1;
            let end = self.type_name()?;
            lit = Literal { text: lit.text, span: lit.span.merge(end) };
        }
        Ok(lit)
    }

    /// A type name: `word [ ( number {, number} ) ]`.
    fn type_name(&mut self) -> SqlResult<Span> {
        let mut span = self.skip_word("a type name")?;
        if self.eat_symbol('(') {
            loop {
                match self.peek() {
                    Some(Token { kind: TokenKind::Number(_), .. }) => {
                        self.pos += 1;
                    }
                    _ => return Err(self.unexpected("a number in the type arguments")),
                }
                if !self.eat_symbol(',') {
                    break;
                }
            }
            span = span.merge(self.expect_symbol(')', "')' closing the type arguments")?);
        }
        Ok(span)
    }

    fn column_ref(&mut self) -> SqlResult<ColumnRef<'a>> {
        let (first, first_span) = self.ident("a column reference")?;
        if self.eat_symbol('.') {
            let (column, col_span) = self.ident("a column after '.'")?;
            Ok(ColumnRef { qualifier: Some(first), column, span: first_span.merge(col_span) })
        } else {
            Ok(ColumnRef { qualifier: None, column: first, span: first_span })
        }
    }

    fn column_list(&mut self) -> SqlResult<Vec<ColumnRef<'a>>> {
        if let Some(Token { kind: TokenKind::Number(_), span }) = self.peek() {
            return Err(ParseError::Unsupported {
                what: "positional column reference",
                span: *span,
            });
        }
        let mut cols = list(self.column_ref()?);
        while self.eat_symbol(',') {
            if let Some(Token { kind: TokenKind::Number(_), span }) = self.peek() {
                return Err(ParseError::Unsupported {
                    what: "positional column reference",
                    span: *span,
                });
            }
            cols.push(self.column_ref()?);
        }
        Ok(cols)
    }

    /// ORDER BY columns; `ASC`/`DESC` are accepted and discarded (the plan
    /// model does not distinguish sort direction).
    fn column_list_with_direction(&mut self) -> SqlResult<Vec<ColumnRef<'a>>> {
        let mut cols = Vec::new();
        loop {
            if let Some(Token { kind: TokenKind::Number(_), span }) = self.peek() {
                return Err(ParseError::Unsupported {
                    what: "positional column reference",
                    span: *span,
                });
            }
            cols.push(self.column_ref()?);
            let _ = self.eat_kw("ASC") || self.eat_kw("DESC");
            if !self.eat_symbol(',') {
                return Ok(cols);
            }
        }
    }

    fn limit(&mut self) -> SqlResult<Option<u64>> {
        if self.eat_kw("LIMIT") {
            return Ok(Some(self.limit_count()?));
        }
        if self.eat_kw("FETCH") {
            self.expect_kw("FIRST")?;
            let n = self.limit_count()?;
            if !(self.eat_kw("ROWS") || self.eat_kw("ROW")) {
                return Err(self.unexpected("ROWS"));
            }
            self.expect_kw("ONLY")?;
            return Ok(Some(n));
        }
        Ok(None)
    }

    fn limit_count(&mut self) -> SqlResult<u64> {
        match self.peek() {
            Some(Token { kind: TokenKind::Number(text), span }) => {
                let n = text.parse::<u64>().map_err(|_| ParseError::InvalidNumber {
                    text: text.to_string(),
                    span: *span,
                })?;
                self.pos += 1;
                Ok(n)
            }
            _ => Err(self.unexpected("a row count")),
        }
    }
}

/// A list seeded with its first item, with room for seven more so a list
/// the size of a rendered statement's (up to eight tables) is allocated once.
fn list<T>(first: T) -> Vec<T> {
    let mut items = Vec::with_capacity(8);
    items.push(first);
    items
}

/// Room reserved for the WHERE conjunction; rendered statements carry up
/// to about ten conjuncts.
const CONJUNCTS: usize = 12;

enum Operand<'a> {
    Column(ColumnRef<'a>),
    Literal(Literal<'a>),
}

/// Keywords that terminate a FROM item and therefore cannot be bare aliases.
const FROM_TERMINATORS: [&str; 12] = [
    "WHERE", "GROUP", "ORDER", "LIMIT", "FETCH", "HAVING", "JOIN", "INNER", "CROSS", "ON",
    "OFFSET", "LEFT",
];

fn agg_func(word: &str) -> Option<AggFunc> {
    if word.eq_ignore_ascii_case("COUNT") {
        Some(AggFunc::Count)
    } else if word.eq_ignore_ascii_case("SUM") {
        Some(AggFunc::Sum)
    } else if word.eq_ignore_ascii_case("AVG") {
        Some(AggFunc::Avg)
    } else if word.eq_ignore_ascii_case("MIN") {
        Some(AggFunc::Min)
    } else if word.eq_ignore_ascii_case("MAX") {
        Some(AggFunc::Max)
    } else {
        None
    }
}

fn is_type_literal_prefix(word: &str) -> bool {
    word.eq_ignore_ascii_case("DATE")
        || word.eq_ignore_ascii_case("TIME")
        || word.eq_ignore_ascii_case("TIMESTAMP")
        || word.eq_ignore_ascii_case("INTERVAL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{Ansi, MySql, Postgres};

    fn p(sql: &str) -> SelectStmt<'_> {
        parse(sql, &Ansi).unwrap_or_else(|e| panic!("{sql:?}: {e}"))
    }

    #[test]
    fn parses_the_rendered_shape() {
        let s = p("SELECT c.c_nation, SUM(o.o_total) FROM orders AS o, customer AS c \
                   WHERE o.o_cust = c.c_id AND c.c_nation = 'CA' GROUP BY c.c_nation \
                   ORDER BY c.c_nation FETCH FIRST 100 ROWS ONLY");
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias, "o");
        assert_eq!(s.conditions.len(), 2);
        assert!(matches!(s.conditions[0], Condition::Join { .. }));
        assert!(matches!(&s.conditions[1], Condition::Cmp { op: "=", literal, .. }
            if literal.text == "'CA'"));
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
        assert_eq!(s.limit, Some(100));
        assert!(matches!(
            &s.items[1],
            SelectItem::Aggregate { func: AggFunc::Sum, arg: Some(_), .. }
        ));
    }

    #[test]
    fn join_on_folds_into_the_conjunction() {
        let s = p("SELECT o.* FROM orders o JOIN customer c ON o.o_cust = c.c_id \
                   INNER JOIN nation n ON c.c_nation = n.n_id WHERE n.n_name = 'US'");
        assert_eq!(s.from.len(), 3);
        assert_eq!(s.conditions.len(), 3);
        assert!(matches!(s.conditions[0], Condition::Join { .. }));
        assert!(matches!(s.conditions[1], Condition::Join { .. }));
        assert!(matches!(s.conditions[2], Condition::Cmp { .. }));
    }

    #[test]
    fn bare_and_as_aliases() {
        let s = p("SELECT t.* FROM orders t WHERE t.a = 1");
        assert_eq!(s.from[0].alias, "t");
        let s = p("SELECT orders.* FROM orders WHERE orders.a = 1");
        assert_eq!(s.from[0].alias, "orders", "missing alias defaults to the table name");
    }

    #[test]
    fn between_in_like_and_star_aggregates() {
        let s = p("SELECT COUNT(*) FROM t WHERE t.a BETWEEN 1 AND 10 \
                   AND t.b IN ('x', 'y', 'z') AND t.c LIKE '%ab%'");
        assert!(matches!(
            &s.items[0],
            SelectItem::Aggregate { func: AggFunc::Count, arg: None, .. }
        ));
        assert!(matches!(&s.conditions[0], Condition::Between { lo, hi, .. }
            if lo.text == "1" && hi.text == "10"));
        assert!(matches!(&s.conditions[1], Condition::InList { items, .. } if items.len() == 3));
        assert!(matches!(&s.conditions[2], Condition::Like { pattern, .. }
            if pattern.text == "'%ab%'"));
    }

    #[test]
    fn casts_unwrap_to_the_inner_literal() {
        let s = p("SELECT t.* FROM t WHERE t.d = CAST('2020-01-01' AS DATE)");
        assert!(matches!(&s.conditions[0], Condition::Cmp { literal, .. }
            if literal.text == "'2020-01-01'"));
        let s = parse("SELECT t.* FROM t WHERE t.d = '2020-01-01'::date", &Postgres).unwrap();
        assert!(matches!(&s.conditions[0], Condition::Cmp { literal, .. }
            if literal.text == "'2020-01-01'"));
        let s = p("SELECT t.* FROM t WHERE t.d >= DATE '2020-01-01'");
        assert!(matches!(&s.conditions[0], Condition::Cmp { op: ">=", literal, .. }
            if literal.text == "'2020-01-01'"));
        let s = p("SELECT t.* FROM t WHERE t.n = CAST('9.99' AS DECIMAL(10, 2))");
        assert!(matches!(&s.conditions[0], Condition::Cmp { literal, .. }
            if literal.text == "'9.99'"));
    }

    #[test]
    fn parameter_markers_are_literals() {
        let s = parse("SELECT t.* FROM t WHERE t.a = $1 AND t.b IN ($2, $3)", &Postgres).unwrap();
        assert!(matches!(&s.conditions[0], Condition::Cmp { literal, .. } if literal.text == "$1"));
        let s = parse("SELECT t.* FROM t WHERE t.a = ?", &MySql).unwrap();
        assert!(matches!(&s.conditions[0], Condition::Cmp { literal, .. } if literal.text == "?"));
    }

    #[test]
    fn literal_op_column_normalizes_by_mirroring() {
        let s = p("SELECT t.* FROM t WHERE 10 < t.a");
        assert!(matches!(&s.conditions[0], Condition::Cmp { op: ">", literal, .. }
            if literal.text == "10"));
        let s = p("SELECT t.* FROM t WHERE 10 = t.a");
        assert!(matches!(&s.conditions[0], Condition::Cmp { op: "=", .. }));
    }

    #[test]
    fn parenthesized_groups_splice() {
        let s = p("SELECT t.* FROM t WHERE (t.a = 1 AND t.b = 2) AND t.c = 3");
        assert_eq!(s.conditions.len(), 3);
    }

    #[test]
    fn distinct_all_and_order_direction() {
        let s = p("SELECT DISTINCT t.a FROM t ORDER BY t.a DESC, t.b ASC");
        assert!(s.distinct);
        assert_eq!(s.order_by.len(), 2);
        let s = p("SELECT ALL t.a FROM t");
        assert!(!s.distinct);
    }

    #[test]
    fn unsupported_constructs_produce_typed_errors() {
        let cases: [(&str, &str); 10] = [
            ("SELECT t.* FROM t WHERE t.a = 1 OR t.b = 2", "OR disjunction"),
            ("SELECT t.* FROM t LEFT JOIN u ON t.a = u.a", "outer join"),
            ("SELECT t.* FROM t WHERE NOT t.a = 1", "NOT"),
            ("SELECT t.* FROM t WHERE t.a IS NULL", "IS [NOT] NULL"),
            ("SELECT t.* FROM t GROUP BY t.a HAVING COUNT(*) > 1", "HAVING clause"),
            ("SELECT t.* FROM t WHERE t.a IN (SELECT b.a FROM b)", "IN subquery"),
            ("SELECT COUNT(DISTINCT t.a) FROM t", "DISTINCT inside an aggregate"),
            ("SELECT t.* FROM (SELECT 1) x", "derived table (subquery in FROM)"),
            ("SELECT t.* FROM t WHERE t.a <> 5", "not-equal predicate"),
            ("SELECT t.* FROM t LIMIT 10 OFFSET 5", "OFFSET clause"),
        ];
        for (sql, what) in cases {
            match parse(sql, &Ansi) {
                Err(ParseError::Unsupported { what: got, span }) => {
                    assert_eq!(got, what, "{sql}");
                    assert!(span.end > span.start || span.end <= sql.len());
                }
                other => panic!("{sql}: expected Unsupported({what}), got {other:?}"),
            }
        }
    }

    #[test]
    fn syntax_errors_carry_spans() {
        // "FROM" is consumed as the (keyword-named) select item, so the
        // parser reports the missing FROM keyword at "t".
        let e = parse("SELECT FROM t", &Ansi).unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedToken { expected: "FROM", found, .. }
            if found == "t"));
        let e = parse("SELECT t.a FROM", &Ansi).unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedEnd { .. }));
        assert_eq!(e.span(), Span::at(15));
        let e = parse("SELECT t.a FROM t WHERE", &Ansi).unwrap_err();
        assert_eq!(e.kind(), "unexpected_end");
        // "extra" binds as a bare alias; "nonsense" is left over.
        let e = parse("SELECT t.a FROM t extra nonsense", &Ansi).unwrap_err();
        assert_eq!(e.kind(), "trailing_input");
        assert_eq!(e.span().slice("SELECT t.a FROM t extra nonsense"), "nonsense");
        let e = parse("UPDATE t SET a = 1", &Ansi).unwrap_err();
        assert!(matches!(e, ParseError::UnexpectedToken { expected: "SELECT", .. }));
        let e = parse("SELECT t.a FROM t; SELECT 1", &Ansi).unwrap_err();
        assert_eq!(e.kind(), "trailing_input");
    }

    #[test]
    fn keywords_can_still_be_identifiers() {
        // `count` as a column, `first` as a table: context disambiguates.
        let s = p("SELECT t.count FROM first t WHERE t.count > 3");
        assert_eq!(s.from[0].table, "first");
        assert!(matches!(&s.items[0], SelectItem::Column(c) if c.column == "count"));
    }

    #[test]
    fn semicolon_terminates_cleanly() {
        assert_eq!(p("SELECT t.a FROM t;").from.len(), 1);
    }

    #[test]
    fn mysql_quoting_round_trips() {
        let s =
            parse("SELECT `o`.`total` FROM `orders` AS `o` WHERE `o`.`total` > 5", &MySql).unwrap();
        assert_eq!(s.from[0].table, "orders");
        assert!(matches!(&s.items[0], SelectItem::Column(c) if c.column == "total"));
    }
}
