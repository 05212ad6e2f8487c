//! Abstract syntax of TMIR, the *transactional mini intermediate
//! representation*.
//!
//! TMIR is the stand-in for Java in this reproduction: a small, statically
//! typed, imperative object language with classes, statics, arrays,
//! first-class threads, monitors, and `atomic` blocks. Every heap access in
//! a program carries a stable [`SiteId`]; the compiler pipeline
//! (`crate::bytecode`'s passes, `tmir_analysis`) decides per site whether
//! an access executes an isolation barrier — exactly the role the paper's
//! JIT plays (§3, §5, §6).

use std::fmt;

/// Identifies a heap-access site (field/static/array load or store).
/// Assigned densely by the parser; stable across passes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// A TMIR type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit integer (also used for booleans: 0/1).
    Int,
    /// Reference to an instance of the named class (nullable).
    Ref(String),
    /// Array of integers.
    IntArray,
    /// Array of references to the named class.
    RefArray(String),
    /// A thread handle returned by `spawn`.
    Thread,
}

impl Ty {
    /// Whether values of this type are heap references.
    pub fn is_ref(&self) -> bool {
        matches!(self, Ty::Ref(_) | Ty::IntArray | Ty::RefArray(_))
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Ref(c) => write!(f, "ref {c}"),
            Ty::IntArray => write!(f, "array int"),
            Ty::RefArray(c) => write!(f, "array ref {c}"),
            Ty::Thread => write!(f, "thread"),
        }
    }
}

/// A field declaration inside a class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Field type ([`Ty::Thread`] is not allowed in fields).
    pub ty: Ty,
    /// `final` fields are written only in constructors-by-convention and
    /// never need isolation barriers (paper §6).
    pub is_final: bool,
}

/// A class declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<FieldDecl>,
}

impl ClassDecl {
    /// Index of the named field.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A static (global) variable declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticDecl {
    /// Static name.
    pub name: String,
    /// Static type.
    pub ty: Ty,
}

/// Binary operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitXor,
    Shl,
    Shr,
}

/// Unary operators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

/// An expression. Heap-reading expressions carry their [`SiteId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// `null` literal.
    Null,
    /// Local variable read (resolved to a slot by the type checker).
    Local(String),
    /// `obj.field` load.
    Field {
        /// Base expression (a reference).
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Access site.
        site: SiteId,
    },
    /// Static variable load.
    Static {
        /// Static name.
        name: String,
        /// Access site.
        site: SiteId,
    },
    /// `arr[idx]` load.
    Index {
        /// Array expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Access site.
        site: SiteId,
    },
    /// `new C` allocation. `site` doubles as the allocation-site id for the
    /// pointer analysis.
    New {
        /// Class name.
        class: String,
        /// Allocation site.
        site: SiteId,
    },
    /// `new_array` allocation.
    NewArray {
        /// Element type (`Ty::Int` or `Ty::Ref`).
        elem: Box<Ty>,
        /// Length expression.
        len: Box<Expr>,
        /// Allocation site.
        site: SiteId,
    },
    /// `len(arr)`.
    Len(Box<Expr>),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Direct call `f(args)`.
    Call {
        /// Callee name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `spawn f(args)` — runs `f` on a new thread, yields a thread handle.
    Spawn {
        /// Function to run.
        func: String,
        /// Arguments (published before the thread starts, paper §4).
        args: Vec<Expr>,
    },
    /// `join e` — waits for the thread and yields its return value.
    Join(Box<Expr>),
}

/// An assignment target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Place {
    /// Local variable.
    Local(String),
    /// `obj.field`.
    Field {
        /// Base expression.
        base: Expr,
        /// Field name.
        field: String,
        /// Access site.
        site: SiteId,
    },
    /// Static variable.
    Static {
        /// Static name.
        name: String,
        /// Access site.
        site: SiteId,
    },
    /// `arr[idx]`.
    Index {
        /// Array expression.
        base: Expr,
        /// Index expression.
        index: Expr,
        /// Access site.
        site: SiteId,
    },
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `let x: ty = e;` — declares a local.
    Let {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Ty,
        /// Initializer.
        init: Expr,
    },
    /// `place = e;`
    Assign {
        /// Target.
        place: Place,
        /// Value.
        value: Expr,
    },
    /// Expression statement (e.g. a call).
    Expr(Expr),
    /// `if (c) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (may be empty).
        else_body: Vec<Stmt>,
    },
    /// `while (c) { .. }`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `atomic { .. }` — a transaction.
    Atomic {
        /// Body.
        body: Vec<Stmt>,
    },
    /// `retry;` — user-initiated retry; only valid inside `atomic`.
    Retry,
    /// `lock (e) { .. }` — a monitor region on the object `e`.
    Lock {
        /// Monitor object.
        obj: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// `print e;` — appends to the VM's output log.
    Print(Expr),
    /// `assert e;` — traps if `e` is zero.
    Assert(Expr),
}

/// A function declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Parameters (name, type).
    pub params: Vec<(String, Ty)>,
    /// Return type; `None` for void.
    pub ret: Option<Ty>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole TMIR program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Classes by declaration order.
    pub classes: Vec<ClassDecl>,
    /// Statics by declaration order.
    pub statics: Vec<StaticDecl>,
    /// Functions by declaration order. Entry point: `main`. If a function
    /// named `init` exists it runs single-threaded before `main` (the
    /// analogue of Java class initializers, paper §5.3).
    pub funcs: Vec<FuncDecl>,
    /// Total number of site ids assigned.
    pub num_sites: u32,
}

impl Program {
    /// Looks up a class.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Looks up a function.
    pub fn func(&self, name: &str) -> Option<&FuncDecl> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Index of the named static.
    pub fn static_index(&self, name: &str) -> Option<usize> {
        self.statics.iter().position(|s| s.name == name)
    }
}

/// Walks all statements of a function body (pre-order), including nested
/// blocks, applying `f`.
pub fn walk_stmts<'a>(body: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::If { then_body, else_body, .. } => {
                walk_stmts(then_body, f);
                walk_stmts(else_body, f);
            }
            Stmt::While { body, .. } => walk_stmts(body, f),
            Stmt::Atomic { body } => walk_stmts(body, f),
            Stmt::Lock { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Walks all expressions in a statement (including places), applying `f`.
pub fn walk_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    fn expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        f(e);
        match e {
            Expr::Field { base, .. } => expr(base, f),
            Expr::Index { base, index, .. } => {
                expr(base, f);
                expr(index, f);
            }
            Expr::NewArray { len, .. } => expr(len, f),
            Expr::Len(b) | Expr::Un { expr: b, .. } | Expr::Join(b) => expr(b, f),
            Expr::Bin { lhs, rhs, .. } => {
                expr(lhs, f);
                expr(rhs, f);
            }
            Expr::Call { args, .. } | Expr::Spawn { args, .. } => {
                for a in args {
                    expr(a, f);
                }
            }
            _ => {}
        }
    }
    match stmt {
        Stmt::Let { init, .. } => expr(init, f),
        Stmt::Assign { place, value } => {
            match place {
                Place::Field { base, .. } => expr(base, f),
                Place::Index { base, index, .. } => {
                    expr(base, f);
                    expr(index, f);
                }
                _ => {}
            }
            expr(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) | Stmt::Assert(e) => expr(e, f),
        Stmt::If { cond, .. } => expr(cond, f),
        Stmt::While { cond, .. } => expr(cond, f),
        Stmt::Lock { obj, .. } => expr(obj, f),
        Stmt::Return(Some(e)) => expr(e, f),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_refness() {
        assert!(!Ty::Int.is_ref());
        assert!(Ty::Ref("C".into()).is_ref());
        assert!(Ty::IntArray.is_ref());
        assert!(Ty::RefArray("C".into()).is_ref());
        assert!(!Ty::Thread.is_ref());
    }

    #[test]
    fn walk_visits_nested() {
        let body = vec![Stmt::Atomic {
            body: vec![Stmt::While {
                cond: Expr::Int(1),
                body: vec![Stmt::Retry],
            }],
        }];
        let mut count = 0;
        walk_stmts(&body, &mut |_| count += 1);
        assert_eq!(count, 3);
    }

    #[test]
    fn walk_exprs_visits_places() {
        let s = Stmt::Assign {
            place: Place::Field {
                base: Expr::Local("a".into()),
                field: "x".into(),
                site: SiteId(0),
            },
            value: Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Int(1)),
                rhs: Box::new(Expr::Int(2)),
            },
        };
        let mut n = 0;
        walk_exprs(&s, &mut |_| n += 1);
        assert_eq!(n, 4, "base local + bin + 2 ints");
    }
}
