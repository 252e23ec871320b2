// Package asmpolicy audits the hand-written amd64 assembly kernels against
// the repo's portability and correctness policy:
//
//   - Floating-point opcodes are restricted to an explicit allowlist of
//     opcodes that are exact per lane or bitwise: AVX/AVX2 moves, broadcasts
//     and the lane permute VPERMPD, mul/add/sub (vector and scalar forms),
//     the horizontal subtract VHSUBPD (one IEEE subtract per element, like
//     VSUBPD) and VDIVPD, each correctly rounded like the Go operator, the
//     bitwise VXORPD (zeroing), VORPD and VPTEST (the all-lanes-zero test),
//     plus VZEROUPPER. Any FMA-family opcode (VFMADD*, VFMSUB*, VFNMADD*,
//     ...) is an error even though it would be faster: fused multiply-add
//     changes rounding (one rounding step instead of two), and the
//     project's acceptance tests require the SIMD path to be bit-exact with
//     the pure-Go reference kernels.
//
//   - Every TEXT block that touches a Y register must execute VZEROUPPER
//     before each RET, avoiding the AVX->SSE transition penalty in callers.
//
//   - TEXT argument sizes are cross-checked against the Go stub
//     declarations (ABI0 layout), and stubs and TEXT blocks must pair up
//     one-to-one, so the assembly cannot silently drift from the Go
//     signatures it implements.
package asmpolicy

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "asmpolicy",
	Doc:  "amd64 assembly: FP opcode allowlist (exact or bitwise, no FMA), VZEROUPPER before RET, TEXT sizes match Go stubs",
	Run:  run,
}

// fpAllowlist is the complete set of floating-point opcodes the kernels may
// use. Everything else that smells floating-point is rejected.
var fpAllowlist = map[string]bool{
	"VMOVUPD": true, "VMOVSD": true, "VBROADCASTSD": true,
	"VBROADCASTF128": true, "VPERMPD": true,
	"VMULPD": true, "VADDPD": true, "VSUBPD": true, "VDIVPD": true, "VHSUBPD": true,
	"VMULSD": true, "VADDSD": true, "VSUBSD": true,
	"VXORPD": true, "VORPD": true, "VPTEST": true,
	"VZEROUPPER": true,
}

var (
	fmaRE   = regexp.MustCompile(`^VF(N)?M(ADD|SUB|ADDSUB|SUBADD)`)
	textRE  = regexp.MustCompile(`^TEXT\s+·([A-Za-z_][A-Za-z0-9_]*)\(SB\)\s*(?:,\s*[A-Z0-9|$]+)?\s*,\s*\$(-?\d+)(?:-(\d+))?`)
	yRegRE  = regexp.MustCompile(`\bY(1[0-5]|[0-9])\b`)
	labelRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*:`)
)

type inst struct {
	line     int
	mnemonic string
}

type textBlock struct {
	name    string
	file    string
	line    int
	argSize int64
	hasArgs bool
	insts   []inst
	usesY   bool
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	if pkg == nil || !pkg.Spec.InModule {
		return nil
	}
	var asmFiles []string
	for _, f := range pkg.Spec.SFiles {
		if strings.HasSuffix(f, "_amd64.s") {
			asmFiles = append(asmFiles, f)
		}
	}
	if len(asmFiles) == 0 {
		return nil
	}

	blocks := make(map[string]*textBlock)
	for _, fname := range asmFiles {
		content, err := os.ReadFile(fname)
		if err != nil {
			return err
		}
		for _, b := range parseFile(fname, string(content), pass) {
			blocks[b.name] = b
			checkBlock(pass, fname, b)
		}
	}

	// Cross-check against the Go stub declarations: argument sizes, and
	// one-to-one pairing in both directions.
	stubs := make(map[string]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body == nil && fd.Recv == nil {
				stubs[fd.Name.Name] = fd
			}
		}
	}
	sizes := types.SizesFor("gc", "amd64")
	for name, b := range blocks {
		stub, ok := stubs[name]
		if !ok {
			pass.ReportAtf(token.Position{Filename: b.file, Line: b.line},
				"asmpolicy: TEXT ·%s has no bodyless Go declaration in package %s", name, pkg.Types.Name())
			continue
		}
		fn, _ := pkg.Info.Defs[stub.Name].(*types.Func)
		if fn == nil {
			continue
		}
		want := abi0ArgSize(fn.Type().(*types.Signature), sizes)
		if !b.hasArgs {
			pass.ReportAtf(token.Position{Filename: b.file, Line: b.line},
				"asmpolicy: TEXT ·%s declares no argument size; want $frame-%d", name, want)
		} else if b.argSize != want {
			pass.ReportAtf(token.Position{Filename: b.file, Line: b.line},
				"asmpolicy: TEXT ·%s argument size is %d bytes; Go declaration requires %d", name, b.argSize, want)
		}
	}
	for name, fd := range stubs {
		if _, ok := blocks[name]; !ok {
			pass.Reportf(fd.Pos(),
				"asmpolicy: bodyless func %s has no TEXT block in the package's amd64 assembly", name)
		}
	}
	return nil
}

// parseFile splits one assembly file into TEXT blocks. Malformed TEXT lines
// are reported and skipped.
func parseFile(fname, content string, pass *analysis.Pass) []*textBlock {
	var out []*textBlock
	var cur *textBlock
	for i, raw := range strings.Split(content, "\n") {
		lineNo := i + 1
		line := raw
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "TEXT") {
			m := textRE.FindStringSubmatch(line)
			if m == nil {
				pass.ReportAtf(token.Position{Filename: fname, Line: lineNo},
					"asmpolicy: unparseable TEXT directive %q", line)
				cur = nil
				continue
			}
			cur = &textBlock{name: m[1], file: fname, line: lineNo}
			if m[3] != "" {
				cur.argSize, _ = strconv.ParseInt(m[3], 10, 64)
				cur.hasArgs = true
			}
			out = append(out, cur)
			continue
		}
		if labelRE.MatchString(line) {
			line = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
			if line == "" {
				continue
			}
		}
		if cur == nil {
			continue
		}
		if strings.HasPrefix(line, "GLOBL") || strings.HasPrefix(line, "DATA") || strings.HasPrefix(line, "PCALIGN") {
			continue
		}
		mnemonic, operands, _ := strings.Cut(line, " ")
		mnemonic = strings.TrimSpace(mnemonic)
		operands = strings.TrimSpace(operands)
		cur.insts = append(cur.insts, inst{lineNo, mnemonic})
		if yRegRE.MatchString(operands) {
			cur.usesY = true
		}
	}
	return out
}

// checkBlock applies the opcode and VZEROUPPER rules to one TEXT block.
func checkBlock(pass *analysis.Pass, fname string, b *textBlock) {
	sawVzeroupper := false
	for _, in := range b.insts {
		if fmaRE.MatchString(in.mnemonic) {
			pass.ReportAtf(token.Position{Filename: fname, Line: in.line},
				"asmpolicy: FMA opcode %s is forbidden: fused rounding breaks bit-exactness with the reference kernels", in.mnemonic)
			continue
		}
		if isFPMnemonic(in.mnemonic) && !fpAllowlist[in.mnemonic] {
			pass.ReportAtf(token.Position{Filename: fname, Line: in.line},
				"asmpolicy: floating-point opcode %s is not in the policy allowlist", in.mnemonic)
		}
		switch in.mnemonic {
		case "VZEROUPPER":
			sawVzeroupper = true
		case "RET":
			if b.usesY && !sawVzeroupper {
				pass.ReportAtf(token.Position{Filename: fname, Line: in.line},
					"asmpolicy: RET in Y-register-using TEXT ·%s without a preceding VZEROUPPER", b.name)
			}
			sawVzeroupper = false
		}
	}
}

// isFPMnemonic reports whether a mnemonic is floating-point-shaped: any VEX
// opcode, or an SSE-style opcode with a scalar/packed float suffix.
func isFPMnemonic(m string) bool {
	if strings.HasPrefix(m, "V") {
		return true
	}
	for _, suf := range []string{"SD", "PD", "SS", "PS"} {
		if strings.HasSuffix(m, suf) && len(m) > len(suf) {
			return true
		}
	}
	return false
}

// abi0ArgSize computes the stack bytes of arguments plus results under ABI0:
// parameters packed with natural alignment, results starting at an 8-byte
// boundary, total rounded up to 8.
func abi0ArgSize(sig *types.Signature, sizes types.Sizes) int64 {
	var off int64
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		off = align(off, sizes.Alignof(t))
		off += sizes.Sizeof(t)
	}
	if sig.Results().Len() > 0 {
		off = align(off, 8)
		for i := 0; i < sig.Results().Len(); i++ {
			t := sig.Results().At(i).Type()
			off = align(off, sizes.Alignof(t))
			off += sizes.Sizeof(t)
		}
	}
	return align(off, 8)
}

func align(x, a int64) int64 {
	return (x + a - 1) &^ (a - 1)
}
