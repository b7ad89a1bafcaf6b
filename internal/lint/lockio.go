package lint

import (
	"go/ast"
	"go/types"
)

// LockIO flags blocking operations — file and network I/O, channel sends
// and receives, selects, HTTP calls, sleeps — executed while a sync.Mutex
// or RWMutex is held, in the serving packages. The serving tier coalesces
// concurrent predict waves through one registry read-lock; a disk read or
// channel handshake inside that critical section turns a single slow
// operation into head-of-line blocking for every client. The analysis is a
// linear scan per function: a lock is considered held from the Lock/RLock
// call until the matching Unlock/RUnlock statement in the same block (or to
// the end of the function when the unlock is deferred). Signal-only channel
// operations that are provably non-blocking (close, default-guarded
// selects) are not flagged.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "flag blocking I/O, channel ops, and HTTP calls while a mutex is held in serving packages",
	Run:  runLockIO,
}

func runLockIO(p *Package, cfg *Config) []Finding {
	if !pathIn(p.Path, cfg.LockIOPackages) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				s := &lockScan{p: p}
				s.stmts(body.List, false)
				out = append(out, s.findings...)
			}
			return true // descend: FuncLits inside are their own scopes
		})
	}
	return out
}

type lockScan struct {
	p        *Package
	findings []Finding
}

// stmts walks a statement list linearly, tracking whether a mutex is held,
// and returns the held state at the end of the list. Branch bodies inherit
// the current state; an unlock inside a branch does not clear the state for
// the statements after the branch (conservative — suppress with a reason if
// a legitimate pattern trips this).
func (s *lockScan) stmts(list []ast.Stmt, held bool) bool {
	for _, stmt := range list {
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			if kind := mutexCallKind(s.p.Info, st.X); kind == lockAcquire {
				held = true
				continue
			} else if kind == lockRelease {
				held = false
				continue
			}
		case *ast.DeferStmt:
			if kind := mutexCallKind(s.p.Info, st.Call); kind == lockRelease {
				continue // held to end of function; later statements stay flagged
			}
		case *ast.BlockStmt:
			held = s.stmts(st.List, held)
			continue
		case *ast.IfStmt:
			if held {
				s.blocking(st)
			} else {
				s.stmts(st.Body.List, held)
				if st.Else != nil {
					s.stmts([]ast.Stmt{st.Else}, held)
				}
			}
			continue
		case *ast.ForStmt:
			if held {
				s.blocking(st)
			} else {
				s.stmts(st.Body.List, held)
			}
			continue
		case *ast.RangeStmt:
			if held {
				s.blocking(st)
			} else {
				s.stmts(st.Body.List, held)
			}
			continue
		case *ast.SwitchStmt:
			if held {
				s.blocking(st)
			} else {
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						s.stmts(cc.Body, held)
					}
				}
			}
			continue
		case *ast.TypeSwitchStmt:
			if held {
				s.blocking(st)
			} else {
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						s.stmts(cc.Body, held)
					}
				}
			}
			continue
		}
		if held {
			s.blocking(stmt)
		}
	}
	return held
}

// blocking reports every blocking operation inside the statement, without
// descending into function literals (their bodies run later, outside the
// critical section — unless invoked synchronously, which the linear scan
// cannot see).
func (s *lockScan) blocking(stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			s.add(n, "channel send while mutex held")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				s.add(n, "channel receive while mutex held")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				s.add(n, "blocking select while mutex held")
			}
			return false
		case *ast.RangeStmt:
			if t := s.p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					s.add(n, "range over channel while mutex held")
				}
			}
		case *ast.CallExpr:
			if reason := blockingCall(s.p.Info, n); reason != "" {
				s.add(n, reason+" while mutex held")
			}
		}
		return true
	})
}

func (s *lockScan) add(n ast.Node, msg string) {
	s.findings = append(s.findings, s.p.finding("lockio", n,
		"%s — move it outside the critical section or copy the state out first", msg))
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

type mutexCall int

const (
	notMutex mutexCall = iota
	lockAcquire
	lockRelease
)

// mutexCallKind classifies expressions like mu.Lock() / r.mu.RUnlock().
func mutexCallKind(info *types.Info, e ast.Expr) mutexCall {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return notMutex
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" || isPkgLevelFunc(fn) {
		return notMutex
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return notMutex
}

// osBlocking are the package-level os functions that hit the filesystem.
var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Chmod": true,
	"Chtimes": true, "Truncate": true, "Symlink": true, "Link": true,
}

// ioBlocking are the io helpers that drive reads/writes to completion.
var ioBlocking = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "WriteString": true,
}

// moduleBlocking are the module's own packages whose package-level
// functions do blocking file I/O, by module-relative path, with the name
// findings use. Listing them keeps a lock held across a helper from hiding
// the os calls inside it.
var moduleBlocking = []struct{ path, desc string }{
	{"internal/atomicfile", "atomic file write"},
}

// blockingCall classifies a call as blocking and names it, or returns "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	pkg, name := funcPkgPath(fn), fn.Name()
	for _, mb := range moduleBlocking {
		if isPkgLevelFunc(fn) && pathSuffixIn(pkg, []string{mb.path}) {
			return mb.desc + " (" + fn.Pkg().Name() + "." + name + ")"
		}
	}
	switch pkg {
	case "os":
		if isPkgLevelFunc(fn) {
			if osBlocking[name] {
				return "file I/O (os." + name + ")"
			}
			return ""
		}
		// Methods on *os.File and friends: reads, writes, syncs.
		switch name {
		case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Close", "Readdir", "ReadDir", "Seek", "Truncate":
			return "file I/O ((*os.File)." + name + ")"
		}
	case "io":
		if isPkgLevelFunc(fn) && ioBlocking[name] {
			return "I/O (io." + name + ")"
		}
	case "net/http":
		return "HTTP call (http." + name + ")"
	case "net":
		return "network call (net." + name + ")"
	case "os/exec":
		return "subprocess (exec." + name + ")"
	case "time":
		if name == "Sleep" {
			return "sleep (time.Sleep)"
		}
	case "bufio":
		if !isPkgLevelFunc(fn) && name == "Flush" {
			return "buffered flush (bufio." + name + ")"
		}
	}
	return ""
}
